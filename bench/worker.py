"""Benchmark worker: builds one workload's inputs, then runs its jobs.

Started by ``bench/run.py``, one process per set-up probe or measuring run,
with ``src`` on ``PYTHONPATH``:

    python3 bench/worker.py --workload ff_compare --seed 1 --seconds 25 \
        --trace 0 --workdir .bench_work/x

It prints ``READY`` once the inputs are built (the end of set-up), then
runs a warm-up job and a closed loop of identical jobs for ``--seconds``,
and prints one JSON line with the job records, the correctness verdicts and,
when traced, the span aggregates. The first job's outputs are checked
against seed-free invariants and, for the default seed, against the stored
reference; every later job must repeat them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from daglms import NoiseSpec, ScenarioConfig, StepSizePolicy, arima2_spr_closed_form, cli, make_preset, sim
from daglms.adapt import PRESET_ORDER

import tracer as tracing

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1

# criterion 1: (integrated_pr, dag_spr) per preset, in PRESET_ORDER
PRESET_VERDICTS = [("Y", "Y"), ("N", "Y"), ("N", "Y"), ("Y", "Y"), ("N", "Y")]
# criterion 3: verdicts closer than this to the SPR boundary may disagree
SPR_BOUNDARY_BAND = 1e-6
SYSID_PARAM_ERR_TOL = 0.05
REFERENCE_ATTEN_TOL_DB = 1e-6
REFERENCE_REL_TOL = 1e-9

FF_INI = """\
[scenario]
kind = feedforward
noise_kind = bandpass
sample_rate_hz = 2500
band_low_hz = 70
band_high_hz = 170
amplitude = 0.006
seed = {seed}
n_adaptive_params = 60
duration_samples = {duration}
open_loop_prefix_samples = {prefix}
primary_path = resonant_primary
secondary_path = resonant_secondary

[run]
algorithms = lms, nlms, plms
presets = {presets}
mu_lms = 0.2
mu_nlms = 0.0002
mu_plms = 0.22
threshold_db = 20
window_seconds = {window}
"""

SIZES = {
    "full": {
        "ff": {"duration": 3000, "prefix": 750, "window": 0.15},
        "sysid": {"ensemble": 3, "taps": 16, "duration": 2000},
        # the default contour range at four times its step (231 cells per
        # d1p), so a job takes under a second and a run holds ~25 jobs
        "design": {"cells": 200, "step": 0.2},
    },
    "tiny": {
        "ff": {"duration": 600, "prefix": 200, "window": 0.04},
        "sysid": {"ensemble": 1, "taps": 16, "duration": 1000},
        "design": {"cells": 20, "step": 0.5},
    },
}


class Op:
    """One public call made by a job and the outputs it produced."""

    def __init__(self, name: str):
        self.name = name
        self.error: str | None = None
        self.outputs: dict[str, bytes] = {}
        self.files: dict[str, Path] = {}

    def read_files(self) -> None:
        for name, path in self.files.items():
            try:
                self.outputs[name] = path.read_bytes()
            except FileNotFoundError:
                self.error = self.error or f"missing output {name}"


def _call_cli(op: Op, argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code == cli.EXIT_DIVERGED:
        op.error = "unexpected divergence (exit 2)"
    elif code != cli.EXIT_OK:
        op.error = f"unexpected exit code {code}"


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _load_reference(name: str) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


class FfCompare:
    """``daglms compare`` over lms,nlms,plms x the five presets, traces written."""

    name = "ff_compare"
    item = "samples"

    def __init__(self, seed: int, workdir: Path, size: str):
        shape = SIZES[size]["ff"]
        self.ini = workdir / "scenario.ini"
        self.ini.write_text(
            FF_INI.format(seed=seed, presets=", ".join(PRESET_ORDER), **shape)
        )
        self.scenario, self.options = cli.load_scenario(self.ini)
        self.out = workdir / "out"
        self.runs = [(a, p) for a in self.options["algorithms"] for p in self.options["presets"]]
        self.files = [f"trace_{a}_{p}.csv" for a, p in self.runs] + ["summary.csv"]
        self.items_per_job = len(self.runs) * self.scenario.duration_samples
        self.trace_rows_per_job = self.items_per_job

    def run_job(self, k: int) -> list[Op]:
        op = Op("compare")
        _call_cli(op, ["compare", "--config", str(self.ini), "--out", str(self.out)])
        op.files = {name: self.out / name for name in self.files}
        return [op]

    def check(self, outputs: dict[str, bytes], stored: dict | None, same_seed: bool) -> dict[str, str]:
        problems = {}
        for name in self.files[:-1]:
            rows = outputs[name].count(b"\n") - 1
            if rows != self.scenario.duration_samples:
                problems[name] = f"{rows} trace rows, expected {self.scenario.duration_samples}"
        summary = _csv_rows(outputs["summary.csv"])
        if [(r["algorithm"], r["preset"]) for r in summary] != self.runs:
            problems["summary.csv"] = "runs missing or out of order"
            return problems
        for row in summary:
            atten = float(row["final_atten_db"]) if row["final_atten_db"] else math.nan
            if row["diverged"] != "N" or row["spr_ok"] != "Y" or not math.isfinite(atten):
                problems["summary.csv"] = f"bad summary row {row}"
        if stored is not None and same_seed:
            for row, ref in zip(summary, stored["summary"]):
                exact = ("diverged", "divergence_step", "spr_ok", "time_to_threshold_idx")
                if any(row[k] != ref[k] for k in exact) or abs(
                    float(row["final_atten_db"]) - float(ref["final_atten_db"])
                ) > REFERENCE_ATTEN_TOL_DB:
                    problems["summary.csv"] = f"summary row {row} differs from reference {ref}"
        return problems

    def reference_record(self, outputs: dict[str, bytes]) -> dict:
        return {"summary": _csv_rows(outputs["summary.csv"])}


class SysidEnsemble:
    """``run_sysid`` over an ensemble of targets x {integral, ip, ipd} x {lms, nlms, plms}."""

    name = "sysid_ensemble"
    item = "samples"
    # gains at which every run converges; arima2 and conj_nesterov diverge
    # at plms(0.05) within 2k samples, as the positive-realness analysis predicts
    POLICIES = {
        "lms": StepSizePolicy.lms(0.01),
        "nlms": StepSizePolicy.nlms(0.2),
        "plms": StepSizePolicy.plms(0.05),
    }
    PRESETS = ("integral", "ip", "ipd")

    def __init__(self, seed: int, workdir: Path, size: str):
        shape = SIZES[size]["sysid"]
        rng = np.random.default_rng([seed, 2])
        self.runs = []
        for member in range(shape["ensemble"]):
            scenario = ScenarioConfig(
                kind="sysid",
                noise=NoiseSpec(kind="white", seed=int(rng.integers(2**31))),
                n_adaptive_params=shape["taps"],
                duration_samples=shape["duration"],
                true_params=0.5 * rng.standard_normal(shape["taps"]),
                measurement_noise_rms=0.01,
            )
            for algorithm, policy in self.POLICIES.items():
                for preset in self.PRESETS:
                    name = f"m{member}_{algorithm}_{preset}"
                    self.runs.append((name, scenario, policy, make_preset(preset)))
        self.items_per_job = len(self.runs) * shape["duration"]
        self.trace_rows_per_job = 0

    def run_job(self, k: int) -> list[Op]:
        ops = []
        for name, scenario, policy, cfg in self.runs:
            op = Op(name)
            try:
                # looked up on the module at call time, so the traced run can wrap it
                trace = sim.run_sysid(scenario, policy, cfg)
            except sim.RunDiverged as exc:
                op.error = f"unexpected divergence at step {exc.step}"
            else:
                op.outputs[name] = trace.e0.tobytes() + trace.param_err.tobytes()
            ops.append(op)
        return ops

    @staticmethod
    def _final_err(data: bytes) -> float:
        return float(np.frombuffer(data, dtype=float)[-1])

    def check(self, outputs: dict[str, bytes], stored: dict | None, same_seed: bool) -> dict[str, str]:
        problems = {}
        for name, data in outputs.items():
            err = self._final_err(data)
            if not err < SYSID_PARAM_ERR_TOL:
                problems[name] = f"final param_err {err!r} not below {SYSID_PARAM_ERR_TOL}"
            elif stored is not None and same_seed:
                ref = stored["final_param_err"][name]
                if abs(err - ref) > REFERENCE_REL_TOL * abs(ref):
                    problems[name] = f"final param_err {err!r} differs from reference {ref!r}"
        return problems

    def reference_record(self, outputs: dict[str, bytes]) -> dict:
        return {"final_param_err": {name: self._final_err(d) for name, d in outputs.items()}}


class DesignGrid:
    """``daglms contour`` at d1p 0.0, 0.5 and 0.9, plus ``daglms check`` on custom cells."""

    name = "design_grid"
    item = "cells"
    D1P = (0.0, 0.5, 0.9)

    def __init__(self, seed: int, workdir: Path, size: str):
        shape = SIZES[size]["design"]
        rng = np.random.default_rng([seed, 3])
        n = shape["cells"]
        cells = zip(rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.choice(self.D1P, n))
        # argparse reads "--custom -1.5,0.2,0.5" as a flag, so the value is attached with "="
        custom = [f"--custom={float(c1)!r},{float(c2)!r},{float(d1p)!r}" for c1, c2, d1p in cells]
        self.out = workdir / "out"
        self.check_argv = ["check", "--out", str(self.out), *custom]
        step = str(shape["step"])
        self.contours = [
            (
                f"contour_d1p_{d1p:g}.csv",
                ["contour", "--d1p", str(d1p), "--c1-step", step, "--c2-step", step, "--out", str(self.out)],
            )
            for d1p in self.D1P
        ]
        c1_count = int(round(4.0 / shape["step"])) + 1
        c2_count = int(round(2.0 / shape["step"])) + 1
        self.contour_cells = c1_count * c2_count
        self.check_rows = len(PRESET_ORDER) + n
        self.items_per_job = len(self.D1P) * self.contour_cells + self.check_rows
        self.trace_rows_per_job = 0

    def run_job(self, k: int) -> list[Op]:
        ops = []
        for name, argv in self.contours:
            contour = Op("contour")
            _call_cli(contour, argv)
            contour.files = {name: self.out / name}
            ops.append(contour)
        check = Op("check")
        _call_cli(check, self.check_argv)
        check.files = {"check.csv": self.out / "check.csv"}
        ops.append(check)
        return ops

    def check(self, outputs: dict[str, bytes], stored: dict | None, same_seed: bool) -> dict[str, str]:
        problems = {}
        for name, data in outputs.items():
            rows = _csv_rows(data)
            if name == "check.csv":
                problem = self._check_verdicts(rows, stored if same_seed else None)
            else:
                # the contour grid does not depend on the seed
                problem = self._check_contour(rows, stored["contour"][name] if stored else None)
            if problem:
                problems[name] = problem
        return problems

    def _check_verdicts(self, rows: list[dict], reference: dict | None) -> str | None:
        if len(rows) != self.check_rows:
            return f"{len(rows)} check rows, expected {self.check_rows}"
        presets = [(r["name"], (r["integrated_pr"], r["dag_spr"])) for r in rows[: len(PRESET_ORDER)]]
        if presets != list(zip(PRESET_ORDER, PRESET_VERDICTS)):
            return f"preset verdicts {presets} differ from criterion 1"
        for r in rows[len(PRESET_ORDER):]:
            closed = arima2_spr_closed_form(float(r["c1"]), float(r["c2"]), float(r["d1p"]))
            numeric = r["dag_spr"] == "Y"
            if closed != numeric and abs(float(r["min_re_dag"])) >= SPR_BOUNDARY_BAND:
                return f"closed-form and numeric SPR verdicts disagree on {r['name']}"
        if reference is not None:
            verdicts = [[r["name"], r["dag_spr"], r["integrated_pr"]] for r in rows]
            if verdicts != reference["check_verdicts"]:
                return "check verdicts differ from reference"
        return None

    def _check_contour(self, rows: list[dict], reference: dict | None) -> str | None:
        if len(rows) != self.contour_cells:
            return f"{len(rows)} contour cells, expected {self.contour_cells}"
        if reference is not None and self._contour_flags(rows) != reference:
            return "contour flags differ from reference"
        return None

    @staticmethod
    def _contour_flags(rows: list[dict]) -> dict[str, str]:
        return {
            "spr_dag": "".join(r["spr_dag"] for r in rows),
            "pr_integrated": "".join(r["pr_integrated"] for r in rows),
        }

    def reference_record(self, outputs: dict[str, bytes]) -> dict:
        rows = _csv_rows(outputs["check.csv"])
        return {
            "check_verdicts": [[r["name"], r["dag_spr"], r["integrated_pr"]] for r in rows],
            "contour": {
                name: self._contour_flags(_csv_rows(data))
                for name, data in sorted(outputs.items())
                if name.startswith("contour_")
            },
        }


WORKLOADS = {w.name: w for w in (FfCompare, SysidEnsemble, DesignGrid)}


# a fourth-order direct-form II transposed section, stepped one sample at a time
_CALIB_B = (0.5, -0.3, 0.2, 0.1, 0.05)
_CALIB_A = (1.0, -0.9, 0.3, -0.1, 0.02)


def calibrate() -> float:
    """Seconds taken by a fixed mix of work that uses no daglms code.

    The host's CPU speed drifts by tens of percent within seconds, and
    run medians of raw job times moved by 10-27% between runs where these
    ratios moved by 6-10%. So ``run.py`` scales each job's time by a
    reference time over this loop's time measured next to the job (see
    README.md). The mix mirrors the workloads: interpreter-bound scalar
    filtering, short-vector NumPy calls and long complex-vector NumPy
    expressions. It takes about 75 ms.
    """
    b, a = _CALIB_B, _CALIB_A
    x = np.zeros(60)
    ones = np.ones(60)
    z = np.exp(-1j * np.linspace(0.0, np.pi, 8192))
    start = time.perf_counter()
    state = [0.0] * 4
    for i in range(12_000):
        u = i * 1e-3
        y = b[0] * u + state[0]
        for k in range(3):
            state[k] = b[k + 1] * u + state[k + 1] - a[k + 1] * y
        state[3] = b[4] * u - a[4] * y
    acc = 0.0
    for i in range(18_000):
        acc += float(np.dot(x, ones))
        x[1:] = x[:-1]
        x[0] = i * 0.5
    for _ in range(150):
        acc += float(np.real((1.0 + 0.5 * z) / (1.0 - 0.9 * z)).min())
    return time.perf_counter() - start


class Runner:
    """Checks job outputs and counts operations and failures.

    The first job's outputs are checked in full; every later job must
    repeat their bytes. Output files identical to the stored
    reference are counted, but a difference in bytes alone is no failure.
    """

    def __init__(self, workload, stored: dict | None, same_seed: bool):
        self.workload = workload
        self.stored = stored
        self.same_seed = same_seed
        self.first: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.identical: set[str] = set()
        self.rows_written = 0
        self.bytes_written = 0
        self.first_outputs: dict[str, bytes] = {}

    def account(self, k: int, ops: list[Op] | None) -> None:
        if ops is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"job {k} raised")
            return
        for op in ops:
            op.read_files()
        outputs = {name: data for op in ops for name, data in op.outputs.items()}
        hashes = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        if any(op.error for op in ops):
            bad = {}
        elif self.first is None:
            self.first = hashes
            self.first_outputs = outputs
            bad = self.workload.check(outputs, self.stored, self.same_seed)
            if self.stored is not None:
                self.identical.update(
                    name for name, digest in hashes.items() if self.stored["sha256"].get(name) == digest
                )
        else:
            bad = {
                name: "rerun output differs from the first run's bytes"
                for name, digest in hashes.items()
                if self.first.get(name) != digest
            }
        csvs = [data for name, data in outputs.items() if name.endswith(".csv")]
        self.rows_written = sum(data.count(b"\n") - 1 for data in csvs)
        self.bytes_written = sum(len(data) for data in csvs)
        for op in ops:
            self.attempted += 1
            reasons = [op.error] if op.error else []
            reasons += [f"{name}: {bad[name]}" for name in op.outputs if name in bad]
            if reasons:
                self.failed += 1
                self.problems.extend(f"job {k} {op.name}: {r}" for r in reasons)


def run_job(workload, k: int) -> list[Op] | None:
    try:
        return workload.run_job(k)
    except Exception:  # a crashing job is counted as failed and the loop goes on
        traceback.print_exc()
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def measure(workload, seconds: float, trace: bool, runner: Runner) -> dict:
    tracer = tracing.Tracer() if trace else None
    jobs = []
    calib_setup = calib_before = calibrate()
    runner.account(0, run_job(workload, 0))  # warm-up: fills caches, checked, not timed
    deadline = time.perf_counter() + seconds
    k = 1
    # trace mode alternates untraced and traced jobs, so both see the same host
    min_jobs = 2 if trace else 1
    while time.perf_counter() < deadline or len(jobs) < min_jobs:
        traced = trace and k % 2 == 0
        if traced:
            tracing.install_daglms(tracer)
        start = time.perf_counter()
        try:
            ops = run_job(workload, k)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        calib_after = calibrate()
        jobs.append(
            {"seconds": elapsed, "calib_s": 0.5 * (calib_before + calib_after), "traced": traced}
        )
        calib_before = calib_after
        runner.account(k, ops)
        k += 1
    return {
        "calib_setup_s": calib_setup,
        "jobs": jobs,
        "items_per_job": workload.items_per_job,
        "item": workload.item,
        "trace_rows_per_job": workload.trace_rows_per_job,
        "spans": tracer.summary() if tracer else None,
    }


def write_reference(workload) -> None:
    runner = Runner(workload, None, False)
    runner.account(0, run_job(workload, 0))
    if runner.failed:
        raise SystemExit(f"not writing a reference from failing outputs: {runner.problems}")
    record = workload.reference_record(runner.first_outputs)
    record["sha256"] = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(runner.first_outputs.items())
        if name.endswith(".csv")
    }
    (REFERENCE_DIR / f"{workload.name}.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--write-reference", action="store_true", help="store this seed's outputs as the reference"
    )
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error("--write-reference needs the default seed and the full size")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.size)
    print("READY", flush=True)

    if args.setup_only:
        print(json.dumps({"calib_s": calibrate()}), flush=True)
        return 0
    if args.write_reference:
        write_reference(workload)
        return 0

    stored = _load_reference(workload.name) if args.size == "full" else None
    runner = Runner(workload, stored, args.seed == DEFAULT_SEED)
    record = measure(workload, args.seconds, bool(args.trace), runner)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        checked_reference=stored is not None and args.seed == DEFAULT_SEED,
        bytes_identical_files=len(runner.identical),
        rows_written=runner.rows_written,
        bytes_written=runner.bytes_written,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
