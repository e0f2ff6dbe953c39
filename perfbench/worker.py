"""Timed loop of one workload, run in a fresh interpreter by ``run.py``.

    python3 worker.py JOB.json

The job file names the sidonor source tree, the argument lists of the
warm-up and timed invocations, the output root, the run length and whether
to trace.  The worker imports ``sidonor.cli``, makes one untimed warm-up
call, then calls ``sidonor.cli.main`` in-process until the run length has
passed and the minimum number of samples is reached.  Each invocation writes
into its own output directory so that ``run.py`` can check every one of them
afterwards.  The last line on stdout is a JSON report.

With tracing, untraced and traced invocations alternate, so both see the same
host conditions and their difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HARD_CAP_S = 110.0  # stop starting invocations after this much measuring


def _invoke(cli, argv: list[str]) -> dict:
    sink = io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed invocation, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {"rc": rc, "error": error, "wall": wall, "cpu": cpu}


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` is not used where VmHWM exists: across fork and exec it
    keeps the parent's peak, so the benchmark's own memory would leak in.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _traced(cli, tracer, argv: list[str], out_dir: str) -> dict:
    tracer.reset()
    tracer.install()
    try:
        traced = _invoke(cli, argv + ["--out-dir", out_dir])
    finally:
        tracer.uninstall()
    traced["out_dir"] = out_dir
    traced["stats"] = tracer.snapshot()
    return traced


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import sidonor.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"sidonor imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        from sidonor.jacobi import BACKEND as backend
    except ImportError:
        backend = "absent"

    out_root = job["out_root"]
    warm = _invoke(cli, job["warmup_argv"] + ["--out-dir", os.path.join(out_root, "warmup")])

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    samples = []
    ticks0 = _host_ticks()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(samples) >= job["min_samples"] and elapsed >= job["seconds"]
        if done or elapsed >= HARD_CAP_S:
            break
        k = len(samples)
        if tracer is not None and k % 2:  # alternate which of the pair runs first
            traced = _traced(cli, tracer, job["argv"], os.path.join(out_root, f"t{k}"))
        sample = _invoke(cli, job["argv"] + ["--out-dir", os.path.join(out_root, f"u{k}")])
        sample["out_dir"] = os.path.join(out_root, f"u{k}")
        if tracer is not None:
            if not k % 2:
                traced = _traced(cli, tracer, job["argv"], os.path.join(out_root, f"t{k}"))
            sample["traced"] = traced
        samples.append(sample)

    ticks1 = _host_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    report = {
        "backend": backend,
        "host_steal_share": steal,
        "warmup": warm,
        "samples": samples,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        report["absent"] = tracer.absent
        report["unobserved"] = tracer.unobserved
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(
                [
                    dict(zip(("invocation", "id", "parent", "name", "start", "end"), s))
                    for s in tracer.spans
                ],
                fh,
            )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
