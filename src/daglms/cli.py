"""Command-line front end.

Verdict checks, SPR/PR region grids, frequency-response export and
experiment sweeps, all written as deterministic CSV for external plotting.
Exit codes: 0 ok, 1 verdict mismatch against an expected-values file,
2 divergence in a run, 3 configuration error (out of memory, or an output file
that cannot be written, included),
4 numerics error (a root solve that failed, or a response evaluated on a pole).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import _kernel, sim
from .adapt import PRESET_ORDER, StepSizePolicy, make_preset, preset_triple
from .dsp_core import (
    NoiseSpec,
    Polynomial,
    RootFindingError,
    SingularityError,
    TransferOperator,
    roots_inside_unit_circle,
)
from .spr_design import (
    DEFAULT_SPR_GRID,
    _filter_rows,
    _gain_filter,
    bode_points,
    dag_transfer,
    integrated_pr_closed_form,
    is_pr_unit_pole,  # these three are not called here; bench/tracer.py wraps them as cli.<name>
    is_spr_numeric,
    log_gain_integral,
    spr_region_grid,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_NUMERICS = 4

DEFAULT_SAMPLE_RATE = 2500.0


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read every float spelling of a negative number as a value, as argparse reads "-1.5":
        # "-5e-1", "-.5", "-1E-3", and "--custom -1.5,0.2,0.5"
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage errors exit 3: argparse's 2 means "diverged" here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    # every CSV field written in Python passes through here
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "Y" if value else "N"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "" if value != value else repr(value)  # NaN as an empty field


def _fields(column) -> list[str]:
    # the _fmt field of each value; an array's values as Python floats, ints and bools
    return list(map(_fmt, column.tolist() if isinstance(column, np.ndarray) else column))


def _columns(rows) -> list[list[str]]:
    """One block of formatted columns from rows of values."""
    return [_fields(column) for column in zip(*rows)]


def _rows(columns) -> str:
    # one block of columns, iterables of formatted fields, as CSV text in one join;
    # rows end in "\r\n", as csv.writer wrote them (no field here needs quoting)
    return "\r\n".join([*map(",".join, zip(*columns)), ""])


@contextmanager
def _rewrite(path: Path):
    """Open ``path``, creating it if it is not there, to write its new bytes over its old ones;
    on leaving, normally or by an exception, a regular file longer than the bytes that
    reached it is cut to them.

    Unlike ``O_TRUNC``, a rerun that writes the same bytes frees and allocates no disk block,
    and a file that grew is not cut at all. The inode stays, as with ``O_TRUNC``: a link at
    the path is written through, and mode and owner are kept. An ``OSError`` from the open,
    a write or the cut is a config error that names the path.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            try:
                yield fh
            finally:
                try:
                    fh.flush()
                finally:  # the offset counts the bytes that reached the file, a failed flush's too
                    st = os.fstat(fd)  # a device or a pipe has no length to cut, nor an offset
                    if stat.S_ISREG(st.st_mode) and st.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                        os.ftruncate(fd, end)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, header: list[str], columns) -> None:
    with _rewrite(path) as fh:
        fh.write((",".join(header) + "\r\n" + _rows(columns)).encode())


CHECK_HEADER = ["name", "c1", "c2", "d1p", "dag_spr", "integrated_pr", "min_re_dag", "log_gain_integral"]


def cmd_check(args) -> int:
    # each row's name and (c1, c2, d1p): the presets', then the --custom cells'
    cells = [(name, *preset_triple(name)) for name in PRESET_ORDER]
    for k, spec in enumerate(args.custom or []):
        try:
            c1, c2, d1p = (float(v) for v in spec.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --custom value {spec!r}: expected c1,c2,d1p") from exc
        if not all(map(math.isfinite, (c1, c2, d1p))):
            raise ConfigError(f"bad --custom value {spec!r}: c1, c2 and d1p must be finite")
        if not abs(d1p) < 1.0:  # the rule of contour --d1p
            raise ConfigError(f"bad --custom value {spec!r}: d1p must satisfy |d1p| < 1")
        cells.append((f"custom{k}", c1, c2, d1p))
    expected = _read_verdicts(Path(args.expect)) if args.expect else None

    # rows as CHECK_HEADER lays them out, each judged by the gain filter of the cell it prints
    filters = [_gain_filter((c1, c2), (d1p,)) for _, c1, c2, d1p in cells]
    rows = [
        (*cell, spr.is_spr, pr.is_pr, spr.min_real_part, integral)
        for cell, (spr, integral, pr) in zip(cells, _filter_rows(filters, unit_pole=True))
    ]
    path = _out_dir(args.out) / "check.csv"
    _write_csv(path, CHECK_HEADER, _columns(rows))
    for name, _, _, _, dag_spr, integrated_pr, min_re, integral in rows:
        print(
            f"{name:>14}: dag_spr={_fmt(dag_spr)} integrated_pr={_fmt(integrated_pr)} "
            f"min_re={min_re:.6g} log_gain_integral={integral:.3g}"
        )
    print(f"wrote {path}")

    if expected is not None:
        actual = {row[0]: (_fmt(row[4]), _fmt(row[5])) for row in rows}
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
    """The expected (dag_spr, integrated_pr) of each row of ``path``; a file that
    cannot be read, or that lists no row, is a config error."""
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {row["name"]: (row["dag_spr"], row["integrated_pr"]) for row in reader}
    except (OSError, KeyError, TypeError, csv.Error) as exc:
        raise ConfigError(f"cannot read expected verdicts from {path}: {exc}") from exc
    if not expected:
        raise ConfigError(f"expected verdicts file {path} lists no row")
    return expected


def cmd_contour(args) -> int:
    if not abs(args.d1p) < 1.0:  # NaN included
        raise ConfigError(f"--d1p must be finite with |d1p| < 1, got {args.d1p!r}")
    c1_values, c2_values, spr_flags = spr_region_grid(
        args.d1p,
        (args.c1_min, args.c1_max, args.c1_step),
        (args.c2_min, args.c2_max, args.c2_step),
    )
    path = _out_dir(args.out) / f"contour_d1p_{args.d1p:g}.csv"
    c1 = np.repeat(c1_values, c2_values.size)  # c1-major, as spr_flags is laid out
    c2 = np.tile(c2_values, c1_values.size)
    pr_flags = integrated_pr_closed_form(c1, c2, args.d1p)
    columns = [_fields(c1), _fields(c2), _fields(spr_flags.ravel().astype(int)), _fields(pr_flags.astype(int))]
    _write_csv(path, ["c1", "c2", "spr_dag", "pr_integrated"], columns)
    print(f"wrote {path} ({c1.size} cells)")
    return EXIT_OK


# the most points bode evaluates per preset; its default grid has 8192
MAX_BODE_GRID = 2**20


def cmd_bode(args) -> int:
    if not 256 <= args.grid <= MAX_BODE_GRID:
        raise ConfigError(f"--grid must be between 256 and {MAX_BODE_GRID}, got {args.grid}")
    if not 0.0 < args.fs < np.inf:  # NaN included
        raise ConfigError(f"--fs must be finite and positive, got {args.fs!r}")
    _distinct("preset", args.presets)
    # every preset resolved, and its SPR verdict and log-gain integral as check's, before the first file is written
    filters = [dag_transfer(make_preset(name)) for name in args.presets]
    verdicts = _filter_rows([(h.numerator.coeffs, h.denominator.coeffs) for h in filters], unit_pole=False)
    tables, summary = [], []
    for name, h, (spr, integral, _) in zip(args.presets, filters, verdicts):
        freq, omega, gain_db, phase_deg = bode_points(h, args.grid, args.fs)
        tables.append([_fields(c) for c in (freq, omega, gain_db, phase_deg)])
        phase_ok = bool(np.all(np.abs(phase_deg) < 90.0))
        summary.append((name, spr.is_spr, phase_ok, integral / np.pi))
    out = _out_dir(args.out)
    for columns, (name, is_spr, phase_ok, mean_log_gain) in zip(tables, summary):
        path = out / f"bode_{name}.csv"
        _write_csv(path, ["freq_hz", "omega_rad", "gain_db", "phase_deg"], columns)
        print(
            f"{name:>14}: spr={_fmt(is_spr)} phase_within_90deg={_fmt(phase_ok)} "
            f"mean_log_gain={mean_log_gain:.3g} ({path})"
        )
    _write_csv(
        out / "bode_summary.csv", ["name", "spr", "phase_within_90deg", "mean_log_gain"], _columns(summary)
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# Scenario configuration file
# --------------------------------------------------------------------------

_PATHS = {
    "unit": lambda fs: TransferOperator.identity(),
    "resonant_primary": sim.make_primary_path,
    "resonant_secondary": sim.make_secondary_path,
    "mismatched": sim.make_mismatched_model,
}


def _parse_floats(text: str, key: str) -> tuple[float, ...]:
    """The values of the list ``key``, split at commas and blanks; an error names the key."""
    try:
        values = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    if not values:
        raise ValueError(f"{key}: needs at least one value")
    return values


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _number(section: dict, key: str, default: float, make=float):
    """Pop ``key`` as a finite float and build its value with ``make``; an error names the key."""
    text = section.pop(key, default)
    try:
        value = float(text)
        if not np.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        return make(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _integer(section: dict, key: str, default: int) -> int:
    """Pop ``key`` as an int, never through float (which would truncate 5.5); an error names the key."""
    try:
        return int(section.pop(key, default))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _path_from_config(section: dict, key: str, fs: float) -> TransferOperator | None:
    """Pop the path ``key``: a name, or ``<key>_num`` with an optional ``<key>_den`` (1.0),
    whose roots must lie strictly inside the unit circle: an unstable path's output grows
    without bound whatever the adaptation does."""
    name, num, den = (section.pop(k, None) for k in (key, f"{key}_num", f"{key}_den"))
    if num is None and den is not None:
        raise ValueError(f"{key}_den is set without {key}_num")
    if num is not None and name is not None:
        raise ValueError(f"{key} and {key}_num both set the path; give one")
    if num is not None:
        den = (1.0,) if den is None else _parse_floats(den, f"{key}_den")
        path = TransferOperator(Polynomial(_parse_floats(num, f"{key}_num")), Polynomial(den))
        if not roots_inside_unit_circle(path.denominator):
            raise ValueError(f"{key}_den has a root on or outside the unit circle: the path is unstable")
        return path
    if name is None:
        return None
    if name not in _PATHS:
        raise ConfigError(f"unknown path name {name!r} for {key} (known: {sorted(_PATHS)})")
    return _PATHS[name](fs)


def load_scenario(path: Path, seed_override: int | None = None):
    """Parse a scenario + run-options INI file; a key it does not read is an error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # its message spans lines: one line here
        raise ConfigError(f"cannot parse {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    try:
        # each read pops its key, so the keys left over are the unknown ones
        sc = dict(parser["scenario"])
        run = dict(parser["run"]) if "run" in parser else {}
        fs = _number(sc, "sample_rate_hz", DEFAULT_SAMPLE_RATE)
        kind = sc.pop("kind", "feedforward")
        seed = _integer(sc, "seed", 0)
        noise = NoiseSpec(
            kind=sc.pop("noise_kind", "bandpass"),
            sample_rate_hz=fs,
            band_low_hz=_number(sc, "band_low_hz", 70.0),
            band_high_hz=_number(sc, "band_high_hz", 170.0),
            seed=seed_override if seed_override is not None else seed,
            # feedforward default is the calibrated disturbance level;
            # identification runs default to unit-power input
            amplitude=_number(sc, "amplitude", 0.006 if kind == "feedforward" else 1.0),
        )
        true_params = _parse_floats(sc.pop("true_params"), "true_params") if "true_params" in sc else None
        scenario = sim.ScenarioConfig(
            kind=kind,
            noise=noise,
            n_adaptive_params=_integer(sc, "n_adaptive_params", len(true_params) if true_params else 60),
            duration_samples=_integer(sc, "duration_samples", 150000),
            true_params=true_params,
            primary_path=_path_from_config(sc, "primary_path", fs),
            secondary_path=_path_from_config(sc, "secondary_path", fs),
            secondary_model=_path_from_config(sc, "secondary_model", fs),
            regressor_filter=_path_from_config(sc, "regressor_filter", fs),
            measurement_noise_rms=_number(sc, "measurement_noise_rms", 0.0),
            open_loop_prefix_samples=_integer(sc, "open_loop_prefix_samples", 0),
        )
        # mu_nlms checked on its own, so that a bad delta_nlms is the only error left below
        mu_nlms = _number(run, "mu_nlms", 0.0002, lambda mu: StepSizePolicy.nlms(mu).mu)
        options = {
            "algorithms": _names(run.pop("algorithms", "nlms")),
            "presets": _names(run.pop("presets", "integral")),
            # all three, so an invalid gain is rejected even for an algorithm not swept
            "policies": {
                "lms": _number(run, "mu_lms", 0.2, StepSizePolicy.lms),
                "nlms": _number(run, "delta_nlms", 1e-16, lambda delta: StepSizePolicy.nlms(mu_nlms, delta)),
                "plms": _number(run, "mu_plms", 0.22, StepSizePolicy.plms),
            },
            "threshold_db": _number(run, "threshold_db", 20.0),
            "window_seconds": _number(run, "window_seconds", sim.DEFAULT_ATTEN_WINDOW_S),
        }
        sim._window_samples(options["window_seconds"], fs)  # attenuation_db's own bound
        for name, unread in (("scenario", sc), ("run", run)):
            if unread:
                raise ValueError(f"unknown key(s) in [{name}]: {', '.join(unread)}")
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return scenario, options


_TRACE_BLOCK_ROWS = 4096
_TRACE_HEADER = b"step,time_s,e0,e_post,residual,param_err,atten_db\r\n"
_NO_WINDOW = (np.empty(0), 0, 1)  # no attenuation series: every atten_db field is empty


def _row_writer():
    # the kernel's trace_rows where it loads, else its Python twin, with the same bytes
    kernel = _kernel.load()
    return _trace_rows if kernel is None else kernel.trace_rows


def _trace_text(open_loop, size: int, sample_rate_hz: float) -> list:
    """The text of a trace of ``size`` rows that its controlled rows' records leave as it is,
    block by block of at most ``_TRACE_BLOCK_ROWS`` rows, as a list of ``(start, stop, text)``.

    ``open_loop`` is the prefix of the records e0, e_post, residual and param_err: before its
    length, each block's text is its rows whole, whose atten_db fields are empty; after it,
    each block's text is its rows' ``step,time_s,`` rows, the ``trace_rows`` lead of their
    controlled rows. Whole, the text is about 22 bytes a row."""
    write_rows, prefix, text = _row_writer(), len(open_loop[0]), []
    for lo, hi in ((0, prefix), (prefix, size)):
        for start in range(lo, hi, _TRACE_BLOCK_ROWS):
            stop = min(start + _TRACE_BLOCK_ROWS, hi)
            time_s = np.arange(start, stop) / sample_rate_hz
            records = [r[start:stop] for r in open_loop] if stop <= prefix else []
            text.append((start, stop, bytes(write_rows(start, [time_s, *records], _NO_WINDOW))))
    return text


def _write_trace(path: Path, trace: sim.RunTrace, text=None) -> list:
    """Write ``trace`` to ``path``, block by block, and return its :func:`_trace_text`.

    ``text`` is that text, as an earlier write returned it; None formats it here from the
    trace's own records before its prefix, before the file is opened. Every run of a sweep
    records the same values there, with the same length and rate, so a sweep formats the
    text from its first trace and writes every later one with it. The rows of each
    controlled block are that block's lead and the trace's records, so nothing of this
    trace outlives its block of ``_TRACE_BLOCK_ROWS`` rows: memory stays flat in the trace
    length, beside the text. Where the kernel loads, its
    :meth:`~daglms._kernel.Kernel.trace_rows` formats each block, else its Python twin
    :func:`_trace_rows` does, with the same bytes.
    """
    write_rows, prefix = _row_writer(), trace.open_loop_prefix_samples
    window = _NO_WINDOW
    if trace.atten_db is not None and trace.atten_window_samples is not None:
        window = (trace.atten_db, prefix, trace.atten_window_samples)
    records = (trace.e0, trace.e_post, trace.residual, trace.param_err)
    if text is None:
        text = _trace_text([r[:prefix] for r in records], trace.residual.size, trace.sample_rate_hz)
    with _rewrite(path) as fh:
        fh.write(_TRACE_HEADER)
        for start, stop, shared in text:
            fh.write(shared if stop <= prefix else write_rows(start, [r[start:stop] for r in records], window, shared))
    return text


def _trace_rows(start: int, columns, window, lead=None) -> bytes:
    """:meth:`daglms._kernel.Kernel.trace_rows` in Python, with its contract and its bytes:
    rows ``start``... of the row's ``lead`` row cut before its ``,\\r\\n`` (None: its step),
    a field for each of ``columns`` and the step's ``window`` field."""
    values, first, length = window
    steps = np.arange(start, start + len(columns[0]))
    if lead is None:
        leads = map(str, steps.tolist())
    else:
        *leads, rest = str(lead, "ascii").split("\n")
        if rest or len(leads) != steps.size or not all(row[-2:] == ",\r" for row in leads):
            raise ValueError("a trace_rows lead takes one row ending in ',\\r\\n' for each row")
        leads = [row[:-2] for row in leads]
    k = (steps - first) // length
    k[(k < 0) | (k >= len(values))] = len(values)  # no window: the NaN after the last, an empty field
    return _rows([leads, *map(_fields, columns), _fields(np.append(values, np.nan)[k])]).encode()


def _out_dir(out: str) -> Path:
    """Make the output directory ``--out``; a path that cannot be a directory is a config error."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file there or on the way to it, or no permission
        raise ConfigError(f"--out {out}: cannot make the output directory: {exc.strerror or exc}") from exc
    return path


def _distinct(kind: str, names: list[str]) -> None:
    """Reject a repeated name, whose runs or tables would share one file and repeat a summary row."""
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"repeated {kind} {name!r} in {', '.join(names)}")


def _sweep(scenario, options, out: str) -> int:
    # every algorithm and preset resolved before the first run, so a bad name leaves no output
    for key in ("algorithms", "presets"):
        _distinct(key[:-1], options[key])
    for algorithm in options["algorithms"]:
        if algorithm not in options["policies"]:
            raise ConfigError(f"unknown algorithm {algorithm!r} (known: {', '.join(options['policies'])})")
    presets = [(preset, make_preset(preset)) for preset in options["presets"]]
    sig = sim._signals(scenario)  # before the output directory: signals that do not fit write nothing
    out = _out_dir(out)
    summary_rows, text = [], None
    # each trace goes to its writer as its run returns, bound to no name here, so it is freed
    # before the next run starts: one trace is alive at a time; the first trace's text serves the rest
    for algorithm in options["algorithms"]:
        for preset, cfg in presets:
            row, text = _write_run(
                sim._run(scenario, sig, options["policies"][algorithm], cfg, options["window_seconds"]),
                out, algorithm, preset, options["threshold_db"], text,
            )
            summary_rows.append(row)
    header = ["algorithm", "preset", "diverged", "divergence_step", "spr_ok",
              "final_atten_db", "time_to_threshold_idx", "time_to_threshold_s"]
    _write_csv(out / "summary.csv", header, _columns(summary_rows))
    print(f"wrote {out / 'summary.csv'}")
    return EXIT_DIVERGED if any(row[2] for row in summary_rows) else EXIT_OK  # the diverged column


def _write_run(trace: sim.RunTrace, out: Path, algorithm: str, preset: str, threshold_db: float, text) -> tuple:
    """Write one run's trace into ``out`` with ``text`` (None: its own), as :func:`_write_trace`
    does, and print its line; returns its summary row and the text."""
    path = out / f"trace_{algorithm}_{preset}.csv"
    text = _write_trace(path, trace, text)
    final = tt_idx = tt_s = None
    if trace.atten_db is not None and trace.atten_db.size:
        final = float(trace.atten_db[-1])
        tt_idx = sim.time_to_threshold(trace, threshold_db)
        if tt_idx is not None:
            tt_s = (tt_idx + 1) * trace.atten_window_samples / trace.sample_rate_hz
    status = f"diverged at {trace.divergence_step}" if trace.diverged else (
        f"final_atten={final:.2f} dB, t20_idx={tt_idx}" if final is not None else "done"
    )
    print(f"{algorithm}+{preset}: {status} ({trace.wall_time_s:.2f}s wall) -> {path}")
    return (algorithm, preset, trace.diverged, trace.divergence_step, trace.spr_ok, final, tt_idx, tt_s), text


def cmd_compare(args) -> int:
    """``compare``, and ``run``: one algorithm x one preset, the config's first by default."""
    scenario, options = load_scenario(Path(args.config), args.seed)
    for key in ("algorithms", "presets"):
        if getattr(args, key) is not None:  # an explicit empty list runs nothing, as an empty one in the config
            options[key] = getattr(args, key)
        elif args.command == "run":
            options[key] = options[key][:1]
    return _sweep(scenario, options, args.out)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line.

    It holds each command by its name, which :func:`main` looks up in this module at call
    time, so a command patched here after the parser was built still runs; and no default
    is a mutable object, which one parse could change for the next.
    """
    parser = _Parser(prog="daglms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    out, config = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    out.add_argument("--out", default="out")
    config.add_argument("--config", required=True)
    config.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("check", parents=[out], help="verdict table for the named gain-filter presets")
    p.add_argument("--expect", default=None, help="CSV of expected verdicts; mismatch exits 1")
    p.add_argument("--custom", action="append", metavar="C1,C2,D1P")
    p.set_defaults(func="cmd_check")

    p = sub.add_parser("contour", parents=[out], help="SPR/PR flags over a (c1, c2) grid")
    p.add_argument("--d1p", type=float, required=True)
    p.add_argument("--c1-min", type=float, default=-2.0)
    p.add_argument("--c1-max", type=float, default=2.0)
    p.add_argument("--c1-step", type=float, default=0.05)
    p.add_argument("--c2-min", type=float, default=-1.0)
    p.add_argument("--c2-max", type=float, default=1.0)
    p.add_argument("--c2-step", type=float, default=0.05)
    p.set_defaults(func="cmd_contour")

    p = sub.add_parser("bode", parents=[out], help="gain/phase tables for the presets")
    p.add_argument("--grid", type=int, default=DEFAULT_SPR_GRID)
    p.add_argument("--presets", nargs="*", default=PRESET_ORDER)
    p.add_argument("--fs", type=float, default=DEFAULT_SAMPLE_RATE)
    p.set_defaults(func="cmd_bode")

    p = sub.add_parser("run", parents=[out, config], help="one algorithm x one preset from a config file")
    p.add_argument("--algorithm", dest="algorithms", type=lambda name: [name], metavar="NAME")
    p.add_argument("--preset", dest="presets", type=lambda name: [name], metavar="NAME")
    p.set_defaults(func="cmd_compare")

    p = sub.add_parser("compare", parents=[out, config], help="sweep algorithms x presets from a config file")
    p.add_argument("--algorithms", type=_names, help="comma list overriding the config")
    p.add_argument("--presets", type=_names, help="comma list overriding the config")
    p.set_defaults(func="cmd_compare")
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # main's parser: built at its first call and kept for the process
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (RootFindingError, SingularityError) as exc:  # before ValueError, which SingularityError is
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a scenario too large for this process
        print(f"config error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
