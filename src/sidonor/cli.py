"""Command-line front end.

Subcommands map to the three calculation families plus validation:

    hic           voltage dependence of the relative hyperfine shift
    error-budget  placement/voltage error terms and nulling search
    spectrum      16-level sweep over beta (CSV) + anticrossing report (JSON)
    anticross     anticrossing/crossing report only
    validate      run the acceptance suite, one pass/fail line per criterion

Outputs are deterministic: identical config + version gives byte-identical
files.  Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

from . import __version__
from .acceptance import run_all
from .config import ConfigError, RunConfig, load_config
from .electrostatics import field_coeffs
from .error_budget import (
    admissible_voltage_error,
    dz_for_target,
    find_nulling_parameters,
    nulling_voltage,
    relative_hic_error,
    strip_coefficients,
    strip_gate_terms,
)
from .hyperfine import hic_shift
from .spectrum import (
    ConvergenceError,
    adiabatic_transfer_trace,
    find_anticrossings,
    refine_beta_grid,
    sweep_spectrum,
)


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # cells are Python int/float/str/None: csv writes str(x), which is
        # repr for a float, and "" for None
        writer.writerows(rows)


def _write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, name: str, header: list[str], rows: list[list]):
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    if args.format in ("csv", "both"):
        path = os.path.join(args.out_dir, f"{name}.csv")
        _write_csv(path, header, rows)
        written.append(path)
    if args.format in ("json", "both"):
        path = os.path.join(args.out_dir, f"{name}.json")
        _write_json(path, [dict(zip(header, row)) for row in rows])
        written.append(path)
    for path in written:
        print(f"wrote {path}")


def _require_gate(cfg: RunConfig):
    if cfg.gate is None:
        raise ConfigError("gate.kind", "required")
    return cfg.gate


def cmd_hic(cfg: RunConfig, args) -> int:
    gate = _require_gate(cfg)
    rows = []
    for v in cfg.voltages:
        b = hic_shift(field_coeffs(gate, v), cfg.material)
        rows.append([v, b.second_order, b.first_order_linear, b.first_order_squared, b.total])
    _emit(args, "hic", ["V", "second_order", "first_order_linear", "first_order_squared", "total"], rows)
    return 0


def _placement_terms(gate, v: float, mode: str, cfg: RunConfig):
    """The placement error terms at ``v``; a ConfigError names an offset that overflows them."""
    try:
        rep = relative_hic_error(gate, v, cfg.placement, mode, cfg.material)
    except OverflowError:  # dx**2 beyond the float range
        raise ConfigError("placement.dx", "the offset overflows the error terms") from None
    for name, term in (("placement.dz", rep.dz_term), ("placement.dx", rep.dx2_term),
                       ("placement", rep.dA_over_A)):
        if not abs(term) < math.inf:
            raise ConfigError(name, "the offset overflows the error terms")
    return rep


def cmd_error_budget(cfg: RunConfig, args) -> int:
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
    # admissible_dV depends on V alone, nulling_V on the mode alone
    dvs = [admissible_voltage_error(gate, v, cfg.line_width, mat=cfg.material).dV for v in cfg.voltages]
    rows = []
    for mode in ("published", "recomputed"):
        nulling_v = nulling_voltage(gate, mode, cfg.material)
        for v, dv in zip(cfg.voltages, dvs):
            rep = _placement_terms(gate, v, mode, cfg)
            dz_t = dz_for_target(gate, v, cfg.target, mode, cfg.material) if v > 0 else None
            in_band = dz_t is not None and 2e-9 <= dz_t <= 3e-9
            rows.append([mode, v, rep.dz_term, rep.dx2_term, rep.dA_over_A, dz_t, int(in_band), dv, nulling_v])
    _emit(
        args,
        "error_budget",
        ["mode", "V", "dz_term", "dx2_term", "dA_over_A", "dz_for_target", "dz_in_2_3_nm", "admissible_dV", "nulling_V"],
        rows,
    )

    if cfg.nulling_ranges is not None:
        found = find_nulling_parameters(cfg.target, cfg.nulling_ranges)
        nrows = [[r.a, r.c, r.V, r.bracket, r.admissible_dz] for r in found]
        _emit(args, "nulling", ["a", "c", "V", "bracket", "admissible_dz"], nrows)
        if not found:
            print("warning: no nulling configuration in the given ranges")
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    sweep = sweep_spectrum(cfg.alpha_a, cfg.alpha_b, cfg.beta_grid, cfg.mu)
    # second pass: resolve the vicinity of detected (anti)crossings 10x finer
    centers = [r.beta_star for r in find_anticrossings(sweep)]
    if centers:
        refined = refine_beta_grid(sweep.beta_grid, centers)
        sweep = sweep_spectrum(cfg.alpha_a, cfg.alpha_b, refined, cfg.mu)
    columns = [(t.block, t.energies.tolist(), *t.dominants) for t in sweep.tracks]
    rows = [
        [beta, level, block, energy[i], label[i], weight[i]]
        for i, beta in enumerate(sweep.beta_grid.tolist())
        for level, (block, energy, label, weight) in enumerate(columns, start=1)
    ]
    _emit(
        args,
        "spectrum",
        ["beta", "level", "block", "energy", "dominant_state", "dominant_weight"],
        rows,
    )
    _write_anticross(args, sweep)
    return 0


def cmd_anticross(cfg: RunConfig, args) -> int:
    sweep = sweep_spectrum(cfg.alpha_a, cfg.alpha_b, cfg.beta_grid, cfg.mu)
    _write_anticross(args, sweep)
    return 0


def _write_anticross(args, sweep):
    reports = find_anticrossings(sweep)
    traces = adiabatic_transfer_trace(sweep)
    # the report dataclasses define the record keys; json writes the pair
    # tuple as a list and sort_keys fixes the key order
    payload = {
        "anticrossings": [asdict(r) for r in reports],
        "transfer_traces": [asdict(t) for t in traces],
    }
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "anticrossings.json")
    _write_json(path, payload)
    print(f"wrote {path}")


def cmd_validate(cfg: RunConfig, args) -> int:
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
        ("validate", cmd_validate),
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
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return args.func(cfg, args)
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
