"""Command-line front end.

Subcommands map to the three calculation families plus validation:

    hic           voltage dependence of the relative hyperfine shift
    error-budget  placement/voltage error terms and nulling search
    spectrum      16-level sweep over beta (table) + the anticross report
    anticross     anticrossing/crossing report only
    validate      run the acceptance suite, one pass/fail line per criterion

Each subcommand but ``validate`` is a ``cmd_*`` function of the config alone
that returns its tables and JSON documents; :func:`_write_outputs` then checks
every output path and writes every file, so a failed computation writes nothing.
Each parser declares only the options its command reads: ``validate`` takes
none and loads no config, and ``anticross``, which writes no table, takes no
``--format``.  Each command imports its own compute modules when it runs, so
importing this module and loading a config load only the config layer, and
``hic``, whose table holds only lists, runs without numpy.  Only ``validate``
imports the acceptance suite.

Outputs are deterministic: identical config + version gives byte-identical
files.  Exit codes: 0 success, 1 a failing acceptance criterion (``validate``),
2 configuration error (an output file that cannot be written included) or
usage error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict
from functools import partial
from json.encoder import encode_basestring_ascii

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .constants import ConvergenceError

_log = logging.getLogger(__name__)

_CHUNK_ROWS = 1000  # rows formatted at a time: bounds the text held in memory
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _csv_quoted(text: str) -> str:
    """``text`` as one cell of a csv row: quoted only where csv would quote it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _cell(x) -> tuple[str, str]:
    """(CSV text, JSON text) of one cell, as ``csv.writer`` and ``json.dump`` spell it."""
    if x is None:
        return "", "null"
    kind = type(x)
    if kind is float or kind is int:  # exact types: bool and numpy scalars are refused
        text = repr(x)
        return text, _JSON_NON_FINITE.get(text, text)
    if kind is str:
        return _csv_quoted(x), encode_basestring_ascii(x)
    raise TypeError(f"table cell of type {kind.__name__}: expected float, int, str or None")


def _format_column(values) -> tuple[list[str], list[str]]:
    """(CSV texts, JSON texts) of a column: a float64/int64 array or a list of cells.

    An array's distinct values are formatted once each and gathered through
    the inverse index.  Floats are told apart by bit pattern, so ``-0.0`` and
    ``0.0``, and NaNs of different payloads, never share a text.
    """
    if isinstance(values, list):
        csv_text, json_text = zip(*map(_cell, values))
        return list(csv_text), list(json_text)
    import numpy as np  # an array column: a table of lists loads no numpy
    keys = values.view(np.uint64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    distinct = distinct.view(values.dtype)
    text = np.array(list(map(repr, distinct.tolist())), dtype=object)[inverse].tolist()
    if values.dtype == np.int64 or np.isfinite(distinct).all():  # one spelling in both files
        return text, text
    return text, [_JSON_NON_FINITE.get(t, t) for t in text]


def _write_table(csv_path: str | None, json_path: str | None, header: list[str], columns: list):
    """Write one table as CSV and/or JSON (a ``None`` path skips that format).

    A column is a 1-D float64 or int64 array, or a list of Python floats,
    ints, strings and ``None``.  The files are byte-identical to
    ``csv.writer`` rows and to ``json.dump(records, indent=2, sort_keys=True)``
    plus a newline, where each record is ``dict(zip(header, row))`` of the
    columns' Python values.  Each cell is formatted once, ``_CHUNK_ROWS`` rows
    at a time, and every chunk goes to both files.
    """
    for column in columns:
        if isinstance(column, list):
            continue
        import numpy as np  # an array column: a table of lists loads no numpy

        if column.ndim != 1 or column.dtype not in (np.float64, np.int64):
            raise TypeError(f"table column of {column.ndim} dimensions and dtype {column.dtype}: "
                            "expected a 1-D float64 or int64 array")
    order = sorted(range(len(header)), key=header.__getitem__)  # the sort_keys order
    record = "  {\n%s\n  }" % ",\n".join(
        "    %s: %%s" % encode_basestring_ascii(header[j]).replace("%", "%%") for j in order
    )
    n_rows = len(columns[0])
    with ExitStack() as stack:
        csv_fh = json_fh = None
        if csv_path is not None:
            csv_fh = stack.enter_context(open(csv_path, "w", newline="", encoding="utf-8"))
            csv_fh.write(",".join(map(_csv_quoted, header)) + "\n")
        if json_path is not None:
            json_fh = stack.enter_context(open(json_path, "w", encoding="utf-8"))
        for start in range(0, n_rows, _CHUNK_ROWS):
            cells = [_format_column(c[start:start + _CHUNK_ROWS]) for c in columns]
            if csv_fh is not None:
                csv_fh.write("\n".join(map(",".join, zip(*(c for c, _ in cells)))) + "\n")
            if json_fh is not None:
                json_fh.write(",\n" if start else "[\n")
                json_fh.write(",\n".join(map(record.__mod__, zip(*(cells[j][1] for j in order)))))
        if json_fh is not None:
            json_fh.write("\n]\n" if n_rows else "[]\n")


def _write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_path(args, filename: str) -> str:
    """The path of ``filename`` in the out dir, which is made if it is missing.

    A path that exists and is not a regular file (a directory) is refused.
    """
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out-dir", f"cannot make directory {args.out_dir}: {exc.strerror}") from None
    path = os.path.join(args.out_dir, filename)
    if os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError("--out-dir", f"{path} exists and is not a regular file")
    return path


def _write_outputs(args, tables: dict, documents: dict):
    """Check every output path, then write every file and one ``wrote`` line each.

    ``tables`` maps a name to (header, columns), written as ``NAME.csv`` and/or
    ``NAME.json`` as ``--format`` asks, before ``documents``, which maps a file
    name to a JSON payload.  A file that cannot be opened or written is a
    ``ConfigError`` on ``--out-dir``; the files written before it stay.
    """
    writes = []  # (paths, write) of every output
    for name, (header, columns) in tables.items():
        paths = {fmt: _out_path(args, f"{name}.{fmt}") for fmt in ("csv", "json") if args.format in (fmt, "both")}
        write = partial(_write_table, paths.get("csv"), paths.get("json"), header, columns)
        writes.append((list(paths.values()), write))
    for name, payload in documents.items():
        path = _out_path(args, name)
        writes.append(([path], partial(_write_json, path, payload)))
    for paths, write in writes:
        try:
            write()
        except OSError as exc:
            path = exc.filename or " or ".join(paths)
            raise ConfigError("--out-dir", f"cannot write {path}: {exc.strerror}") from None
        for path in paths:
            print(f"wrote {path}")


def _require_gate(cfg: RunConfig):
    if cfg.gate is None:
        raise ConfigError("gate.kind", "required")
    return cfg.gate


def cmd_hic(cfg: RunConfig) -> tuple[dict, dict]:
    from .electrostatics import field_coeffs
    from .hyperfine import hic_shift

    gate = _require_gate(cfg)
    shifts = [hic_shift(field_coeffs(gate, v), cfg.material) for v in cfg.voltages]
    parts = ["second_order", "first_order_linear", "first_order_squared", "total"]
    return {"hic": (["V", *parts], [cfg.voltages, *([getattr(b, p) for b in shifts] for p in parts)])}, {}


_OFFSET_FAULT = "the offset overflows the error terms"
# (field, message) of a non-finite dz_term, dx2_term, dA_over_A or dz_for_target cell, by mode:
# the published rows come first, so a fault only the recomputed mode shows is the material's
_CELL_FAULTS = {
    "published": [("placement.dz", _OFFSET_FAULT), ("placement.dx", _OFFSET_FAULT),
                  ("placement", _OFFSET_FAULT), ("voltage", "the voltage gives no finite dz_for_target")],
    "recomputed": [("material", "the recomputed strip coefficients overflow the error terms")] * 3
                  + [("material", "the recomputed strip coefficients give no finite dz_for_target")],
}


def cmd_error_budget(cfg: RunConfig) -> tuple[dict, dict]:
    import numpy as np

    from .error_budget import (
        admissible_voltage_error,
        dz_for_target,
        find_nulling_parameters,
        nulling_voltage,
        relative_hic_error,
        strip_coefficients,
        strip_gate_terms,
    )

    gate = _require_gate(cfg)
    if gate.kind != "strip":
        raise ConfigError("gate.kind", "the error budget needs a strip gate")
    if not all(v >= 0 for v in cfg.voltages):
        raise ConfigError("voltage", "the error budget needs non-negative voltages")
    try:
        strip_gate_terms(gate)
    except ValueError as exc:
        raise ConfigError("gate", str(exc)) from None
    q, l = strip_coefficients(gate, "recomputed", cfg.material)
    if not (0.0 < q < math.inf and 0.0 < l < math.inf):
        raise ConfigError("material", "recomputed strip coefficients not finite and positive")
    V = np.array(cfg.voltages)
    # admissible_dV depends on V alone, nulling_V on the mode alone
    dv = admissible_voltage_error(gate, V, cfg.line_width, mat=cfg.material).dV
    if not np.all((dv >= 0.0) & (dv < math.inf)):
        raise ConfigError("material", "the admissible voltage error is not finite and non-negative")
    try:  # the error terms square dx as a Python float, whatever the voltage
        reps = [relative_hic_error(gate, V, cfg.placement, mode, cfg.material) for mode in _CELL_FAULTS]
    except OverflowError:
        raise ConfigError("placement.dx", _OFFSET_FAULT) from None
    tables = []  # the published and the recomputed rows, as columns
    for rep, (mode, faults) in zip(reps, _CELL_FAULTS.items()):
        dz = dz_for_target(gate, V, cfg.target, mode, cfg.material)
        cells = np.column_stack([rep.dz_term, rep.dx2_term, rep.dA_over_A, np.where(V > 0, dz, 0.0)])
        bad = np.argwhere(~np.isfinite(cells))  # (row, column) pairs, the first failing row first
        if bad.size:
            raise ConfigError(*faults[bad[0, 1]])
        tables.append([[mode] * V.size, V, rep.dz_term, rep.dx2_term, rep.dA_over_A,
                       [d if v > 0 else None for v, d in zip(cfg.voltages, dz.tolist())],
                       ((V > 0) & (dz >= 2e-9) & (dz <= 3e-9)).astype(np.int64), dv,
                       [nulling_voltage(gate, mode, cfg.material)] * V.size])
    published, recomputed = tables
    out = {"error_budget": (
        ["mode", "V", "dz_term", "dx2_term", "dA_over_A", "dz_for_target", "dz_in_2_3_nm", "admissible_dV", "nulling_V"],
        [np.concatenate((p, r)) if isinstance(p, np.ndarray) else p + r for p, r in zip(published, recomputed)],
    )}

    if cfg.nulling_ranges is not None:
        found = find_nulling_parameters(cfg.target, cfg.nulling_ranges)
        header = ["a", "c", "V", "bracket", "admissible_dz"]
        columns = [getattr(found, key) for key in header]
        if not np.isfinite(columns).all():  # a bracket or admissible_dz past the float range
            raise ConfigError("error_budget.ranges", "the nulling formulas leave the float range")
        out["nulling"] = (header, columns)
        if not found:
            _log.warning("no nulling configuration in the given ranges")
    return out, {}


def cmd_spectrum(cfg: RunConfig) -> tuple[dict, dict]:
    """The sweep of the configured grid as a table, and the ``anticross`` report of that sweep."""
    import numpy as np

    from .spectrum import sweep_spectrum

    sweep = sweep_spectrum(cfg.alpha_a, cfg.alpha_b, cfg.beta_grid, cfg.mu)
    # one row per (beta, level), beta-major: (n_beta, n_levels) arrays ravel in row order
    n_beta, n_levels = sweep.beta_grid.size, len(sweep.tracks)
    labels, weights = zip(*(t.dominants for t in sweep.tracks))
    columns = [
        np.repeat(sweep.beta_grid, n_levels),
        np.tile(np.arange(1, n_levels + 1), n_beta),
        np.tile([t.block for t in sweep.tracks], n_beta),
        sweep.energy_matrix().ravel(),
        np.column_stack(labels).ravel(),
        np.column_stack(weights).ravel(),
    ]
    header = ["beta", "level", "block", "energy", "dominant_state", "dominant_weight"]
    return {"spectrum": (header, columns)}, _anticross_documents(sweep)


def cmd_anticross(cfg: RunConfig) -> tuple[dict, dict]:
    from .spectrum import sweep_spectrum

    return {}, _anticross_documents(sweep_spectrum(cfg.alpha_a, cfg.alpha_b, cfg.beta_grid, cfg.mu))


def _anticross_documents(sweep) -> dict:
    from .spectrum import adiabatic_transfer_trace, find_anticrossings

    reports = find_anticrossings(sweep)
    traces = adiabatic_transfer_trace(sweep)
    # the report dataclasses define the record keys; json writes the pair
    # tuple as a list and sort_keys fixes the key order
    return {"anticrossings.json": {
        "anticrossings": [asdict(r) for r in reports],
        "transfer_traces": [asdict(t) for t in traces],
    }}


def cmd_validate() -> int:
    from .acceptance import run_all  # the only command that runs the suite

    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.cid:2d}: {r.title} -- {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidonor",
        description="Donor hyperfine Stark shifts, error budgets and two-donor spin spectra",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("hic", cmd_hic),
        ("error-budget", cmd_error_budget),
        ("spectrum", cmd_spectrum),
        ("anticross", cmd_anticross),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path)",
        )
        p.add_argument("--out-dir", default=".", help="output directory")
        if func is not cmd_anticross:  # the commands that write tables
            p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.set_defaults(func=func)
    sub.add_parser("validate").set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_validate:
            return cmd_validate()
        _write_outputs(args, *args.func(load_config(args.config, args.overrides)))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
