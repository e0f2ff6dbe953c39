"""The same-behaviour gate: CLI outputs on a fixed case set against committed references.

Each case runs ``sidonor.cli.main`` in-process into a fresh directory and
reduces what the run left: its exit code, stdout (the output directory
spelled ``OUT``), stderr, and every file it wrote.  A table keeps its header,
its row count and a sample of its rows (every 25th beta of ``spectrum.csv``,
every 101st row of ``nulling.csv``, all of any other table); a JSON document
is kept whole.  :func:`differences` compares a run with its reference:
headers, labels, pairs, kinds, flags, row counts, exit codes and output text
exactly, floats within 1e-12 -- absolute for energies and gaps (units of J),
relative for the rest.

The references under ``tests/golden/`` are regenerated, after a planned
output change only, with::

    PYTHONPATH=src python tests/golden.py --write

and ``tests/test_golden.py`` compares every case with its reference.

A change that should keep every output byte is checked against the source
tree it changes, for example a ``git archive`` of the parent commit, with::

    python tests/golden.py --compare PARENT/src

:func:`compare` runs every case of :func:`compare_cases` -- the cases above
under each ``--format`` their command takes, seeds 0-2 of every benchmark
workload, and ``validate`` -- in a fresh interpreter on ``src/`` and on the
other tree, with one BLAS thread, and reports every exit code, stdout,
stderr and file that is not byte-identical.  It exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _readme_config() -> dict:
    (block,) = re.findall(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                          re.M | re.S)
    return json.loads(block)


README_CONFIG = _readme_config()
# the seed-0 config of the anticross-fine benchmark workload
FINE_CONFIG = {**README_CONFIG, "spin": {**README_CONFIG["spin"], "alpha_a": 0.0633, "alpha_b": 0.0633,
                                          "beta": {"start": 0.2, "stop": 3.0, "points": 2001}}}

# case -> (arguments before --out-dir, config or None for no --config, reference)
CASES = {
    "hic": (["hic", "--format", "csv"], README_CONFIG, "hic"),
    "error-budget": (["error-budget", "--format", "csv"], README_CONFIG, "error-budget"),
    "spectrum": (["spectrum", "--format", "csv"], README_CONFIG, "spectrum"),
    # the README spin section is the default one, so no config gives the README outputs
    "spectrum-without-config": (["spectrum", "--format", "csv"], None, "spectrum"),
    "anticross": (["anticross"], README_CONFIG, "anticross"),
    "anticross-fine": (["anticross"], FINE_CONFIG, "anticross-fine"),
    # a default grid that steps over narrow anticrossings, and an exactly zero coupling
    "anticross-weak": (["anticross", "--set", "spin.alpha_a=0.001", "--set", "spin.alpha_b=0.002"],
                       README_CONFIG, "anticross-weak"),
    "anticross-alpha-a-zero": (["anticross", "--set", "spin.alpha_a=0"], README_CONFIG, "anticross-alpha-a-zero"),
    "alpha-nan": (["spectrum", "--set", "spin.alpha_a=NaN"], README_CONFIG, "alpha-nan"),
}

ABSOLUTE = {"energy", "min_gap"}  # in units of J
TOL = 1e-12


def _value(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _reduce_table(name: str, text: str) -> dict:
    header, *rows = csv.reader(io.StringIO(text))
    if name == "spectrum.csv":  # all rows of every 25th beta
        kept = set(list(dict.fromkeys(row[0] for row in rows))[::25])
        sample = [row for row in rows if row[0] in kept]
    else:
        sample = rows[::101 if name == "nulling.csv" else 1]
    columns = {key: [_value(row[j]) for row in sample] for j, key in enumerate(header)}
    return {"header": header, "rows": len(rows), "columns": columns}


def run_case(case: str, out_dir: pathlib.Path) -> dict:
    """The reduced outputs of one case, run through ``main`` into ``out_dir``."""
    from sidonor.cli import main

    args, config, _ = CASES[case]
    argv = [*args, "--out-dir", str(out_dir / "out")]
    if config is not None:
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(config_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    for path in sorted((out_dir / "out").glob("*")):
        text = path.read_text(encoding="utf-8")
        files[path.name] = _reduce_table(path.name, text) if path.suffix == ".csv" else json.loads(text)
    return {"exit": code, "stdout": stdout.getvalue().replace(str(out_dir / "out"), "OUT"),
            "stderr": stderr.getvalue(), "files": files}


def load_reference(case: str) -> dict:
    return json.loads((GOLDEN / f"{CASES[case][2]}.json").read_text(encoding="utf-8"))


def differences(got, want, where: str = "", field: str = "") -> list[str]:
    """Every place where ``got`` departs from the reference ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{where}/{key}", key)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {len(got) if isinstance(got, list) else got!r} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{i}]", field)]
    if type(got) is float and type(want) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        scale = 1.0 if field in ABSOLUTE else max(abs(got), abs(want))
        if abs(got - want) <= TOL * scale:
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def write_references() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, (_, _, reference) in CASES.items():
        if case != reference:  # a case checked against another case's reference
            continue
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(case, pathlib.Path(tmp))
        (GOLDEN / f"{reference}.json").write_text(json.dumps(got, indent=1, sort_keys=True) + "\n",
                                                  encoding="utf-8")
        print(f"wrote tests/golden/{reference}.json")


def compare_cases() -> dict[str, tuple[list[str], str | None]]:
    """Case name -> (arguments before --out-dir, config text or None) of :func:`compare`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    cases = {}
    for case, (args, config, _) in CASES.items():
        text = None if config is None else json.dumps(config)
        if args[0] == "anticross":  # writes no table and takes no --format
            cases[case] = (args, text)
            continue
        rest = args[3:] if args[1:2] == ["--format"] else args[1:]
        for fmt in ("csv", "json", "both"):
            cases[f"{case}/{fmt}"] = ([args[0], "--format", fmt, *rest], text)
    for name in workloads.NAMES:
        for seed in range(3):
            w = workloads.make(name, seed)
            cases[f"{name}/seed{seed}"] = ([w.command, *w.extra_args], w.config_text())
    cases["validate"] = (["validate"], None)
    return cases


def _run_fresh(src: pathlib.Path, args: list[str], config: str | None, run_dir: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and output files of one case in a fresh interpreter on ``src``."""
    run_dir.mkdir(parents=True)
    argv = list(args)
    if args[0] != "validate":
        argv += ["--out-dir", "out"]  # relative, so no output spells the run directory
        if config is not None:
            (run_dir / "config.json").write_text(config, encoding="utf-8")
            argv += ["--config", "config.json"]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sidonor.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        cwd=run_dir, env=env, capture_output=True, check=False,
    )
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    for stream in ("stdout", "stderr"):  # a traceback spells the source tree
        out[stream] = out[stream].replace(str(run_dir).encode(), b"RUN").replace(str(src).encode(), b"SRC")
    for path in sorted((run_dir / "out").glob("*")):
        out[f"file {path.name}"] = path.read_bytes()
    return out


def _byte_differences(got: dict, want: dict) -> list[str]:
    """Every stream or file of two fresh runs that is not byte-identical, with its first differing line."""
    found = []
    for key in sorted(got.keys() | want.keys()):
        if key not in want or key not in got:
            found.append(f"{key}: only in {'src' if key in got else 'the other tree'}")
            continue
        if got[key] == want[key]:
            continue
        a, b = (got[key].decode(errors="backslashreplace").splitlines(),
                want[key].decode(errors="backslashreplace").splitlines())
        lines = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        first = lines[0] if lines else min(len(a), len(b))
        found.append(f"{key}: {len(lines) + abs(len(a) - len(b))} differing lines of {len(a)} and {len(b)};"
                     f" first at line {first + 1}: {a[first] if first < len(a) else ''!r}"
                     f" != {b[first] if first < len(b) else ''!r}")
    return found


def compare(other_src: pathlib.Path, cases=None) -> list[str]:
    """Every byte difference of the cases (all of :func:`compare_cases` by default) between ``src/`` and ``other_src``."""
    chosen = compare_cases()
    if cases is not None:
        chosen = {case: chosen[case] for case in cases}
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, (case, (args, config)) in enumerate(chosen.items()):
            runs = [_run_fresh(src, args, config, pathlib.Path(tmp) / str(n) / side)
                    for side, src in (("src", ROOT / "src"), ("other", pathlib.Path(other_src).resolve()))]
            found += [f"{case}: {d}" for d in _byte_differences(*runs)]
    return found


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_references()
    elif len(sys.argv) == 3 and sys.argv[1] == "--compare":
        found = compare(pathlib.Path(sys.argv[2]))
        print("\n".join(found) or f"no byte differences in {len(compare_cases())} cases")
        sys.exit(1 if found else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write\n"
                 "       python tests/golden.py --compare OTHER_SRC")
