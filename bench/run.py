"""daglms benchmark: runs one workload and prints every metric with its unit.

Run from the repository root:

    python3 bench/run.py --workload ff_compare --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over several fresh processes), work completed per second (median
over the jobs of a closed loop) and peak resident memory. ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics from
the spans. Each run checks the outputs (see ``worker.py``); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs every workload
at a tiny size in both modes and checks that every metric named in
``BENCHMARK.json`` appears with its unit and that the outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ff_compare", "sysid_ensemble", "design_grid")
SETUP_PROBES = 3
# Median time of worker.calibrate() on the host the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11). Job and set-up times are reported in
# seconds of that host: scaled by this over the calibration time measured
# next to them. See README.md.
CALIB_REF_S = 0.075
WORKER_GRACE_S = 120.0


class BenchError(RuntimeError):
    pass


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # one thread each, so the numbers measure the program and not the scheduler
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(root: Path, argv: list[str], limit_s: float) -> tuple[float, dict]:
    """Start a worker; return its set-up seconds (spawn to READY) and its JSON record."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {code}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _scaled(seconds: float, calib_s: float) -> float:
    return seconds * CALIB_REF_S / calib_s


def end_to_end(setups: list[float], record: dict) -> dict:
    jobs = [j for j in record["jobs"] if not j["traced"]]
    rates = [record["items_per_job"] / _scaled(j["seconds"], j["calib_s"]) for j in jobs]
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "work_per_s": {"value": _median(rates), "unit": "items/s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(record: dict) -> dict:
    spans = record["spans"]
    traced = [j for j in record["jobs"] if j["traced"]]
    plain = [j for j in record["jobs"] if not j["traced"]]
    n_traced = len(traced)

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0, "p50_ns": 0.0, "p99_ns": 0.0})

    def per_call(name: str, key: str, scale: float) -> float:
        s = span(name)
        return s[key] / s["calls"] / scale if s["calls"] else 0.0

    def per_job(value: float) -> float:
        return value / n_traced

    metrics: dict[str, tuple[float, str]] = {}
    filter_step = span("dsp_core.filter_step")
    metrics["dsp_core.filter_step.us_p50"] = (filter_step["p50_ns"] / 1e3, "us")
    metrics["dsp_core.filter_step.us_p99"] = (filter_step["p99_ns"] / 1e3, "us")
    metrics["dsp_core.filter_step.calls"] = (per_job(filter_step["calls"]), "count/job")
    metrics["dsp_core.gen_noise.ms"] = (per_call("dsp_core.gen_noise", "total_ns", 1e6), "ms")
    metrics["dsp_core.filter_signal.ms"] = (per_call("dsp_core.filter_signal", "total_ns", 1e6), "ms")
    for name in ("dsp_core.roots_inside_unit_circle", "spr_design.is_spr_numeric",
                 "spr_design.is_pr_unit_pole", "spr_design.arima2_spr_closed_form",
                 "spr_design.log_gain_integral", "adapt.effective_estimate"):
        metrics[f"{name}.us"] = (per_call(name, "total_ns", 1e3), "us")
        metrics[f"{name}.calls"] = (per_job(span(name)["calls"]), "count/job")
    metrics["adapt.update_from_error.self_us"] = (per_call("adapt.update_from_error", "self_ns", 1e3), "us")
    metrics["adapt.update.self_us"] = (per_call("adapt.update", "self_ns", 1e3), "us")
    metrics["adapt.steps"] = (
        per_job(span("adapt.update")["calls"] + span("adapt.update_from_error")["calls"]),
        "count/job",
    )
    for name in ("sim.run_feedforward", "sim.run_sysid"):
        s = span(name)
        metrics[f"{name}.self_us_per_sample"] = (s["self_ns"] / s["units"] / 1e3 if s["units"] else 0.0, "us")
    metrics["sim.attenuation_db.ms"] = (per_call("sim.attenuation_db", "total_ns", 1e6), "ms")
    metrics["sim.spr_screen.ms"] = (per_call("sim.spr_screen", "total_ns", 1e6), "ms")
    metrics["spr_design.spr_region_grid.ms"] = (per_call("spr_design.spr_region_grid", "total_ns", 1e6), "ms")
    rows = record["trace_rows_per_job"] * n_traced
    sweep_self = span("cli.compare")["self_ns"]
    metrics["cli.sweep.self_us_per_row"] = (sweep_self / rows / 1e3 if rows else 0.0, "us")
    metrics["cli.rows_written"] = (float(record["rows_written"]), "count/job")
    metrics["cli.bytes_written"] = (float(record["bytes_written"]), "bytes/job")
    metrics["cli.bytes_identical_files"] = (float(record["bytes_identical_files"]), "count")
    metrics["cli.contour.self_ms"] = (per_call("cli.contour", "self_ns", 1e6), "ms")
    overhead = (
        _median(_scaled(j["seconds"], j["calib_s"]) for j in traced)
        / _median(_scaled(j["seconds"], j["calib_s"]) for j in plain)
        - 1.0
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = {
        path.name: len(path.read_text().splitlines())
        for path in sorted((root / "src" / "daglms").glob("*.py"))
    }
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(root), "src_lines": src_lines}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the worker's record."""
    workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    try:
        setups = []
        if not trace:
            for i in range(probes):
                probe_s, probe = run_worker(
                    root, [*base, "--seconds", "0", "--setup-only", "--workdir", str(workdir / f"probe{i}")],
                    WORKER_GRACE_S,
                )
                setups.append(_scaled(probe_s, probe["calib_s"]))
        setup_s, record = run_worker(
            root,
            [*base, "--seconds", str(seconds), "--trace", str(int(trace)), "--workdir", str(workdir / "run")],
            seconds + WORKER_GRACE_S,
        )
        setups.append(_scaled(setup_s, record["calib_setup_s"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    metrics = per_layer(record) if trace else end_to_end(setups, record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def report(workload: str, seed: int, result: dict, record: dict, root: Path) -> None:
    jobs = [j for j in record["jobs"] if not j["traced"]]
    item = record["item"]
    print(f"workload {workload}  seed {seed}  jobs {len(record['jobs'])} "
          f"({len(jobs)} untraced, {record['items_per_job']} {item} per job)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if "work_per_s" in result["metrics"]:
        raw = record["items_per_job"] / _median(j["seconds"] for j in jobs)
        print(f"  work_per_s counts {item}: {item}_per_s = {result['metrics']['work_per_s']['value']:.6g} {item}/s "
              f"(median of {len(jobs)} jobs; unscaled {raw:.6g} {item}/s); "
              f"setup_s is the median of {SETUP_PROBES + 1} processes")
    print(f"  ops_failed_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g} ratio; "
          f"reference checked: {record['checked_reference']}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    env = {**environment(root), **record["env"]}
    print("env " + json.dumps(env, sort_keys=True))


def smoke(root: Path) -> int:
    """Every workload at a tiny size, both modes: metric names, units and correctness."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, record = run_benchmark(root, workload, 1, 0.5, trace, size="tiny", probes=1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = list(record["problems"])
            if got != expected[trace]:
                problems.append(f"metrics {sorted(got.items())} != {sorted(expected[trace].items())}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"result {result['attempted']} attempted, {result['failed']} failed")
            print(f"smoke {workload} trace={int(trace)}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            ok &= not problems
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "daglms" / "cli.py").is_file():
        print(f"bench: no daglms sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, result, record, root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
