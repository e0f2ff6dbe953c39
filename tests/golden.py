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
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
import re
import sys

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
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case, (_, _, reference) in CASES.items():
        if case != reference:  # a case checked against another case's reference
            continue
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(case, pathlib.Path(tmp))
        (GOLDEN / f"{reference}.json").write_text(json.dumps(got, indent=1, sort_keys=True) + "\n",
                                                  encoding="utf-8")
        print(f"wrote tests/golden/{reference}.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write")
    write_references()
