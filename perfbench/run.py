"""sidonor benchmark: three CLI workloads timed end to end, plus a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-ref --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table of metrics
    python3 perfbench/run.py --self-test             # shrunk inputs, checks metric names

Workloads (see ``workloads.py``): ``spectrum-ref``, ``nulling-ref``,
``anticross-fine``.  Each run

1. writes the seeded config under ``perfbench/_work``;
2. times ``SETUP_REPEATS`` fresh interpreters that import ``sidonor.cli`` and
   load the config (``setup_s`` is their median);
3. starts one worker interpreter (``worker.py``) that imports the CLI, makes a
   warm-up call on a shrunk config and then calls ``sidonor.cli.main``
   in-process for ``--seconds`` and at least ``MIN_SAMPLES`` times;
4. checks every output the invocations wrote (``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (``tracing.py``), in which untraced and
traced invocations alternate.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the config's sha256, the machine and the sample details.
The load comes from one process with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import numpy  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_SAMPLES = 11       # the tail needs ten samples beyond it
MIN_TRACE_PAIRS = 3
WORKER_TIMEOUT_S = 150

# wall_s_tail is reported in the info line, not here: a run holds only 11-15
# invocations, so its rank n - 10 is the fastest few, too unsteady on a
# shared host for a regression bound
END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "jacobi.solves": "count",
    "jacobi.solve_s": "s",
    "jacobi.solve_us": "us",
    "spectrum.sweep_s": "s",
    "spectrum.sweep_calls": "count",
    "spectrum.points_swept": "count",
    "spectrum.track_s": "s",
    "spectrum.anticross_s": "s",
    "spectrum.anticross_calls": "count",
    "spectrum.reports": "count",
    "spectrum.refine_s": "s",
    "spectrum.trace_s": "s",
    "error_budget.nulling_s": "s",
    "error_budget.bracket_calls": "count",
    "error_budget.nulling_rows": "count",
    "error_budget.nulling_yield": "ratio",
    "error_budget.report_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "bytes",
    "cli.rows_written": "count",
    "cli.self_s": "s",
    "config.load_s": "s",
    "trace_overhead_s": "s",
}

CHECKS = {
    "spectrum-ref": checks.check_spectrum,
    "nulling-ref": lambda out, cfg, seed: checks.check_error_budget(
        out, cfg, seed, workloads.NULLING_GRID_POINTS),
    "anticross-fine": checks.check_anticross,
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond.

    Nearest rank: the sample at rank n - 10 has ten slower samples.  With ten
    or fewer samples no percentile qualifies and the fastest one is returned
    with the count of samples actually beyond it.
    """
    ordered = sorted(walls)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _setup_times(config_path: Path, repeats: int) -> list[float]:
    code = "import sys, sidonor.cli; sidonor.cli.load_config(sys.argv[1])"
    cmd = [sys.executable, "-c", code, str(config_path)]
    times = []
    for k in range(repeats + 1):  # the first one fills the bytecode cache
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
        if k:
            times.append(elapsed)
    return times


def _run_worker(job: dict, job_path: Path) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(out_dir: str) -> str:
    """sha256 over the names and bytes of every file an invocation wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _failures(invocation: dict, check, config: dict, seed: int, verdicts: dict) -> list[str]:
    """Problems with one invocation; byte-identical outputs share one verdict."""
    if invocation["error"] is not None:
        return [invocation["error"]]
    if invocation["rc"] != 0:
        return [f"exit code {invocation['rc']}"]
    key = _digest(invocation["out_dir"])
    if key not in verdicts:
        try:
            verdicts[key] = check(invocation["out_dir"], config, seed)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            verdicts[key] = [f"malformed output: {exc!r}"]
    return verdicts[key]


def _layer_metrics(stats: dict, mesh: int) -> dict:
    calls, total, own, counters = stats["calls"], stats["total"], stats["self"], stats["counters"]
    solves = calls["jacobi.solve"]
    nulling_calls = calls["error_budget.nulling"]
    return {
        "jacobi.solves": solves,
        "jacobi.solve_s": total["jacobi.solve"],
        "jacobi.solve_us": 1e6 * total["jacobi.solve"] / solves if solves else 0.0,
        "spectrum.sweep_s": total["spectrum.sweep"],
        "spectrum.sweep_calls": calls["spectrum.sweep"],
        "spectrum.points_swept": counters["spectrum.points_swept"],
        "spectrum.track_s": own["spectrum.sweep"],
        "spectrum.anticross_s": total["spectrum.anticross"],
        "spectrum.anticross_calls": calls["spectrum.anticross"],
        "spectrum.reports": counters["spectrum.reports"],
        "spectrum.refine_s": total["spectrum.refine"],
        "spectrum.trace_s": total["spectrum.trace"],
        "error_budget.nulling_s": total["error_budget.nulling"],
        "error_budget.bracket_calls": calls["error_budget.bracket"],
        "error_budget.nulling_rows": counters["error_budget.nulling_rows"],
        "error_budget.nulling_yield": (
            counters["error_budget.nulling_rows"] / (nulling_calls * mesh) if nulling_calls else 0.0
        ),
        "error_budget.report_s": total["error_budget.report"],
        "cli.emit_s": total["cli.write_csv"] + total["cli.write_json"],
        "cli.bytes_written": counters["cli.bytes_written"],
        "cli.rows_written": counters["cli.rows_written"],
        "cli.self_s": own["cli.main"],
        "config.load_s": total["config.load"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, shrink: bool = False,
                 setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result line, info record)."""
    wl = workloads.make(name, seed)
    warm = workloads.make(name, seed, shrink=True)
    if shrink:
        wl = warm
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        text = wl.config_text()
        config_path = work / "config.json"
        config_path.write_text(text, encoding="utf-8")
        warm_path = work / "warmup.json"
        warm_path.write_text(warm.config_text(), encoding="utf-8")

        setup = [] if trace else _setup_times(config_path, setup_repeats)
        job = {
            "src": str(SRC),
            "argv": [wl.command, "--config", str(config_path), *wl.extra_args],
            "warmup_argv": [warm.command, "--config", str(warm_path), *warm.extra_args],
            "out_root": str(work / "out"),
            "spans_path": str(WORK / f"spans-{name}-seed{seed}.json"),
            "seconds": seconds,
            "min_samples": MIN_TRACE_PAIRS if trace else MIN_SAMPLES,
            "trace": trace,
        }
        report = _run_worker(job, work / "job.json")

        check = CHECKS[name]
        invocations = list(report["samples"])
        invocations += [s["traced"] for s in report["samples"] if "traced" in s]
        problems, verdicts = {}, {}
        for inv in invocations:
            found = _failures(inv, check, wl.config, seed, verdicts)
            if found:
                problems[os.path.basename(inv["out_dir"])] = found
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [s["wall"] for s in report["samples"]]
    wall_med = statistics.median(walls)
    attempted, failed = len(invocations), len(problems)
    info = {
        "workload": name,
        "seed": seed,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "jacobi_backend": report["backend"],
        "units_per_invocation": wl.units,
        "unit": wl.unit_name,
        "samples": len(walls),
        "walls_s": walls,
        "cpu_s": [s["cpu"] for s in report["samples"]],
        "measured_s": report["measured_s"],
        "host_steal_share": report["host_steal_share"],
        "failed_ratio": failed / attempted,
        "failures": problems,
        "distinct_outputs": len(verdicts),
        "warmup_ok": report["warmup"]["rc"] == 0,
    }

    if not trace:
        tail_value, tail_pct, beyond = tail(walls)
        info.update(setup_s=setup, wall_s_tail=tail_value, tail_percentile=tail_pct,
                    tail_samples_beyond=beyond)
        values = {
            "wall_s": wall_med,
            "work_per_s": wl.units / wall_med,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        per_inv = [_layer_metrics(s["traced"]["stats"], wl.mesh) for s in report["samples"]]
        values = {}
        for key, unit in PER_LAYER.items():
            if key == "trace_overhead_s":
                continue
            seq = [m[key] for m in per_inv]
            values[key] = seq[0] if unit in ("count", "bytes") else statistics.median(seq)
        traced_walls = [s["traced"]["wall"] for s in report["samples"]]
        values["trace_overhead_s"] = statistics.median(traced_walls) - wall_med
        counts = [k for k, u in PER_LAYER.items() if u in ("count", "bytes")]
        info.update(
            traced_walls_s=traced_walls,
            counts_repeat=all(m[k] == per_inv[0][k] for m in per_inv for k in counts),
            absent=report["absent"],
            unobserved=report["unobserved"],
            spans_file=str(Path(job["spans_path"]).relative_to(ROOT)),
        )
        units = PER_LAYER
    result = {
        "correct": failed == 0 and info["warmup_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, info


def _print_table(rows: list[tuple[str, dict, dict]]):
    print(f"{'workload':<16}{'metric':<16}{'value':>14}  unit")
    for name, result, info in rows:
        for key, m in result["metrics"].items():
            print(f"{name:<16}{key:<16}{m['value']:>14.6g}  {m['unit']}")
        if "wall_s_tail" in info:
            print(f"{name:<16}{'wall_s_tail':<16}{info['wall_s_tail']:>14.6g}  s "
                  f"(p{info['tail_percentile']:.0f} of {info['samples']} samples)")
        print(f"{name:<16}{'failed_ratio':<16}{info['failed_ratio']:>14.6g}  ratio "
              f"({result['failed']}/{result['attempted']})")


def self_test() -> int:
    """Every workload once on shrunk inputs, both modes; every named metric appears."""
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
        names = [w["name"] for w in spec["workloads"]]
    else:
        want = {0: list(END_TO_END), 1: list(PER_LAYER)}
        names = list(workloads.NAMES)
    problems = []
    if names != list(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.NAMES)}")
    for name in workloads.NAMES:
        for trace in (0, 1):
            result, info = run_workload(name, 1, 0.0, bool(trace), shrink=True, setup_repeats=1)
            got = sorted(result["metrics"])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if got != sorted(want[trace]):
                problems.append(f"{name} trace {trace}: metrics {got} != {sorted(want[trace])}")
            if not result["correct"]:
                first = next(iter(info["failures"].items()), None)
                problems.append(f"{name} trace {trace}: {result['failed']} failed, first {first}")
            absent = f", absent: {info['absent']}" if trace and info["absent"] else ""
            print(f"self-test {name} trace {trace}: {result['attempted']} invocations, "
                  f"{len(got)} metrics{absent}")
    for p in problems:
        print("FAIL", p)
    print("self-test ok" if not problems else f"self-test failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "sidonor" / "cli.py").is_file():
        print(f"no sidonor sources at {SRC}; run from the root of a sidonor checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rows.append((name, result, info))
    if args.workload == "all":
        _print_table(rows)
        print(json.dumps({name: result for name, result, _ in rows}))
        return 0 if all(r["correct"] for _, r, _ in rows) else 1
    _, result, info = rows[0]
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
