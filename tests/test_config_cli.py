import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_row_error_budget, write_table

from sidonor import cli
from sidonor.acceptance import CriterionResult
from sidonor.cli import main
from sidonor.config import ConfigError, load_config, parse_number, parse_quantity, set_by_path
from sidonor.error_budget import find_nulling_parameters
from sidonor.spectrum import DEFAULT_BETA_GRID

DISC_CONFIG = {
    "gate": {"kind": "disc", "a": "5 nm", "c": "10 nm"},
    "voltage": {"values": ["0 V", "0.5 V", "1 V"]},
}

STRIP_CONFIG = {
    "gate": {"kind": "strip", "a": "5 nm", "c": "10 nm", "D": "500 nm"},
    "voltage": {"values": ["0.6 V"]},
    "placement": {"dx": "1 nm", "dz": "1 nm"},
    "error_budget": {
        "target": 0.01,
        "line_width": "10 kHz",
        "ranges": {"a": ["5 nm", "5 nm"], "c": ["10 nm", "10 nm"], "V": ["0.1 V", "1 V"]},
    },
}


# the README example config
README_CONFIG = {
    "material": {
        "a_star": "2 nm",
        "eps_r": 11.9,
        "psi0_sq": "0.43e24 cm^-3",
        "Delta_E": "0.04 eV",
        "delta_E": "-0.023 eV",
    },
    "gate": {"kind": "strip", "a": "5 nm", "c": "10 nm", "D": "500 nm"},
    "voltage": {"start": "0 V", "stop": "1 V", "points": 11},
    "placement": {"dx": "1 nm", "dz": "1 nm"},
    "error_budget": {
        "target": 0.01,
        "line_width": "10 kHz",
        "ranges": {"a": ["3 nm", "8 nm"], "c": ["8 nm", "12 nm"], "V": ["0.1 V", "1 V"]},
    },
    "spin": {
        "alpha_a": 0.3,
        "alpha_b": 0.4,
        "beta": {"start": 0.2, "stop": 3.0, "points": 401},
        "mu": "slaved",
    },
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# --- quantity parsing -------------------------------------------------------

def test_parse_quantity_units():
    assert parse_quantity("10 nm", "length", "x") == pytest.approx(1e-8)
    assert parse_quantity("0.04 eV", "energy", "x") == pytest.approx(6.4e-21)
    assert parse_quantity("10 kHz", "frequency", "x") == pytest.approx(1e4)
    assert parse_quantity("0.43e30 m^-3", "density", "x") == pytest.approx(0.43e30)
    assert parse_quantity("0.43e24 cm^-3", "density", "x") == pytest.approx(0.43e30)


def test_parse_quantity_rejects_bare_numbers_and_bad_units():
    with pytest.raises(ConfigError):
        parse_quantity(10, "length", "gate.a")
    with pytest.raises(ConfigError):
        parse_quantity("10 parsec", "length", "gate.a")
    with pytest.raises(ConfigError):
        parse_quantity("ten nm", "length", "gate.a")


def test_set_by_path():
    data = {"gate": {"kind": "disc"}}
    set_by_path(data, "gate.a=\"4 nm\"")
    set_by_path(data, "spin.alpha_a=0.25")
    assert data["gate"]["a"] == "4 nm"
    assert data["spin"]["alpha_a"] == 0.25
    with pytest.raises(ConfigError):
        set_by_path(data, "no-equals-sign")


def test_material_overrides(tmp_path):
    path = write_config(
        tmp_path,
        {"material": {"a_star": "3 nm", "eps_r": 12.5, "delta_E": "-0.025 eV"}},
    )
    cfg = load_config(path)
    assert cfg.material.a_star == pytest.approx(3e-9)
    assert cfg.material.eps_r == 12.5
    assert cfg.material.delta_E == pytest.approx(-0.025 * 1.6e-19)


def test_bad_json_reports_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


# --- CLI commands -----------------------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_hic_requires_gate(tmp_path, capsys):
    code = main(["hic", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "gate.kind" in capsys.readouterr().err


def test_hic_rows_and_zero_voltage(tmp_path):
    cfg = write_config(tmp_path, DISC_CONFIG)
    out = tmp_path / "out"
    assert main(["hic", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = read_csv(out / "hic.csv")
    assert rows[0] == ["V", "second_order", "first_order_linear", "first_order_squared", "total"]
    assert len(rows) == 4
    assert [float(x) for x in rows[1]] == [0.0, 0.0, 0.0, 0.0, 0.0]
    data = json.loads((out / "hic.json").read_text())
    assert len(data) == 3 and data[2]["V"] == 1.0


def test_hic_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, DISC_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["hic", "--config", cfg, "--out-dir", str(out1)])
    main(["hic", "--config", cfg, "--out-dir", str(out2)])
    assert (out1 / "hic.csv").read_bytes() == (out2 / "hic.csv").read_bytes()
    assert (out1 / "hic.json").read_bytes() == (out2 / "hic.json").read_bytes()


def test_set_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, DISC_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["hic", "--config", cfg, "--out-dir", str(out1)])
    main(["hic", "--config", cfg, "--set", 'gate.a="4 nm"', "--out-dir", str(out2)])
    assert (out1 / "hic.csv").read_bytes() != (out2 / "hic.csv").read_bytes()


def test_strip_run_emits_quadratic_curve(tmp_path):
    payload = dict(DISC_CONFIG)
    payload["gate"] = {"kind": "strip", "a": "5 nm", "c": "10 nm", "D": "500 nm"}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    main(["hic", "--config", cfg, "--out-dir", str(out), "--format", "json"])
    data = json.loads((out / "hic.json").read_text())
    assert data[1]["first_order_linear"] == 0.0
    assert data[2]["total"] == pytest.approx(-0.11142168664840582, rel=1e-12)


def test_error_budget_command(tmp_path):
    cfg = write_config(tmp_path, STRIP_CONFIG)
    out = tmp_path / "out"
    assert main(["error-budget", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = read_csv(out / "error_budget.csv")
    header = rows[0]
    assert header[0] == "mode"
    by_mode = {}
    for row in rows[1:]:
        by_mode.setdefault(row[0], []).append(row)
    assert set(by_mode) == {"published", "recomputed"}
    pub = by_mode["published"][0]
    dz_idx, band_idx, dv_idx = header.index("dz_for_target"), header.index("dz_in_2_3_nm"), header.index("admissible_dV")
    assert 2e-9 <= float(pub[dz_idx]) <= 3e-9
    assert pub[band_idx] == "1"
    assert 1e-4 <= float(pub[dv_idx]) <= 1e-3
    nulling = read_csv(out / "nulling.csv")
    assert len(nulling) == 2  # header + the V* ~ 0.747 root
    assert float(nulling[1][2]) == pytest.approx(0.7468820861678004, rel=1e-6)


def test_error_budget_empty_ranges_warn_but_succeed(tmp_path, caplog):
    payload = json.loads(json.dumps(STRIP_CONFIG))
    payload["error_budget"]["ranges"]["V"] = ["0.1 V", "0.2 V"]  # off-root window
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["error-budget", "--config", cfg, "--out-dir", str(out)]) == 0
    assert [(r.name, r.levelname) for r in caplog.records] == [("sidonor.cli", "WARNING")]
    assert "no nulling configuration" in caplog.text
    assert (out / "nulling.csv").read_text(encoding="utf-8") == "a,c,V,bracket,admissible_dz\n"
    assert (out / "nulling.json").read_text(encoding="utf-8") == "[]\n"


@pytest.mark.parametrize("overrides", [
    [],
    ["spin.alpha_a=0.0583", "spin.alpha_b=0.0583"],
    ["spin.alpha_a=0.3", "spin.alpha_b=0.3"],
    ["spin.beta.values=[0.5, 1.5]"],
], ids=["readme", "equal-0.0583", "equal-0.3", "two-betas"])
def test_spectrum_is_anticross_plus_the_table_of_the_configured_grid(tmp_path, overrides):
    cfg = write_config(tmp_path, README_CONFIG)
    sets = [arg for o in overrides for arg in ("--set", o)]
    for command in ("spectrum", "anticross"):
        assert run_main([command, "--config", cfg, "--out-dir", str(tmp_path / command), *sets]) == (0, "")
    report = (tmp_path / "spectrum" / "anticrossings.json").read_bytes()
    assert report == (tmp_path / "anticross" / "anticrossings.json").read_bytes()
    rows = read_csv(tmp_path / "spectrum" / "spectrum.csv")[1:]
    grid = load_config(cfg, overrides).beta_grid
    assert [float(row[0]) for row in rows] == np.repeat(grid, 16).tolist()
    # each level's dominant states at the last and the first beta are its trace's labels
    for trace in json.loads(report)["transfer_traces"]:
        level = trace["level"]
        assert int(rows[-17 + level][4]) == trace["enter_label"]
        assert int(rows[level - 1][4]) == trace["exit_label"]


def test_spectrum_command(tmp_path):
    payload = {
        "spin": {
            "alpha_a": 0.3,
            "alpha_b": 0.4,
            "beta": {"start": 0.2, "stop": 3.0, "points": 57},
            "mu": "slaved",
        }
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out), "--format", "csv"]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["beta", "level", "block", "energy", "dominant_state", "dominant_weight"]
    betas = sorted({float(r[0]) for r in rows[1:]})
    assert len(rows) == 1 + len(betas) * 16
    assert betas == load_config(cfg).beta_grid  # the configured grid, no more
    report = json.loads((out / "anticrossings.json").read_text())
    pairs = {tuple(r["pair"]) for r in report["anticrossings"] if r["kind"] == "anticrossing"}
    assert (15, 12) in pairs and (13, 10) in pairs
    assert len(report["transfer_traces"]) == 16
    report_keys = {"pair", "beta_star", "min_gap", "block", "kind", "partner", "enter_weight",
                   "exit_weight"}
    trace_keys = {"block", "level", "enter_label", "exit_label", "enter_weight", "exit_weight",
                  "conclusive"}
    assert all(set(r) == report_keys for r in report["anticrossings"])
    assert all(set(t) == trace_keys for t in report["transfer_traces"])


PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0].item()
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 1e16, 1e-7, math.inf, -math.inf, math.nan,
                  -math.nan, PAYLOAD_NAN)
CELL_TEXT = st.text(st.sampled_from('ab ,"\n\r%\u00e9\u20ac'), max_size=6)
FLOAT_CELLS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
COLUMN_KINDS = (  # (cells, dtype): a list column when dtype is None, else an array column
    (FLOAT_CELLS, None),
    (st.integers(-(2**70), 2**70), None),
    (st.one_of(st.sampled_from(SPECIAL_FLOATS), st.integers(-(2**70), 2**70), st.none(), CELL_TEXT),
     None),
    (FLOAT_CELLS, np.float64),
    (st.integers(-(2**63), 2**63 - 1), np.int64),
)


@settings(max_examples=60)
@given(data=st.data())
def test_table_writer_equals_oracle(data):
    header = data.draw(
        st.lists(CELL_TEXT, min_size=2, max_size=5, unique=True).filter(lambda h: h != sorted(h)),
        label="header",
    )
    kinds = [data.draw(st.sampled_from(COLUMN_KINDS)) for _ in header]
    # a few distinct rows repeated cyclically fill 0-3 chunks without drawing every
    # cell; each value recurs within a chunk and across chunks
    pool = data.draw(st.lists(st.tuples(*(cells for cells, _ in kinds)), min_size=1, max_size=6),
                     label="pool")
    n_rows = data.draw(st.integers(0, 3 * cli._CHUNK_ROWS), label="n_rows")
    fmt = data.draw(st.sampled_from(["csv", "json", "both"]), label="format")
    cells = [[pool[i % len(pool)][j] for i in range(n_rows)] for j in range(len(header))]
    columns = [c if dtype is None else np.array(c, dtype=dtype) for c, (_, dtype) in zip(cells, kinds)]
    assert_table_equals_oracle(header, columns, fmt)


def assert_table_equals_oracle(header, columns, fmt):
    """``cli._emit`` writes the bytes of ``write_table`` on the columns' Python values."""
    rows = [list(r) for r in zip(*(c if isinstance(c, list) else c.tolist() for c in columns))]
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new"), os.path.join(tmp, "ref")
        os.mkdir(ref)
        with contextlib.redirect_stdout(io.StringIO()):
            cli._emit(argparse.Namespace(out_dir=new, format=fmt), "t", header, columns)
        paths = {ext: os.path.join(ref, f"t.{ext}") for ext in ("csv", "json") if fmt in (ext, "both")}
        write_table(paths.get("csv"), paths.get("json"), header, rows)
        assert sorted(os.listdir(new)) == sorted(os.listdir(ref))
        for name in os.listdir(ref):
            with open(os.path.join(new, name), "rb") as a, open(os.path.join(ref, name), "rb") as b:
                assert a.read() == b.read(), name


def test_table_writer_tells_zero_signs_and_nan_payloads_apart():
    # equal as numbers, distinct as bits: each keeps its own spelling in a shared chunk
    values = [0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, math.inf, -math.inf, 1.0, -0.0, 0.0]
    column = np.array(values * 150)  # 1,500 rows: two chunks
    assert_table_equals_oracle(["z", "a"], [column, np.arange(column.size)], "both")
    for first in (0.0, -0.0):
        assert_table_equals_oracle(["z"], [np.array([first, -first] * 3)], "both")


@pytest.mark.parametrize("column", [
    np.array([True, False]),
    np.array([1.0, 2.0], dtype=np.float32),
    np.array([1.0, None], dtype=object),
    np.zeros((2, 1)),
    np.array(1.0),
], ids=["bool", "float32", "object", "2-D", "0-d"])
def test_table_writer_refuses_other_arrays(tmp_path, column):
    paths = tmp_path / "t.csv", tmp_path / "t.json"
    for columns in ([np.arange(2), column], [column, np.arange(2)]):
        with pytest.raises(TypeError, match="expected a 1-D float64 or int64 array"):
            cli._write_table(*map(str, paths), ["x", "y"], columns)
        assert not any(p.exists() for p in paths)


def test_table_files_round_trip(tmp_path):
    # the JSON is canonical json.dumps output and the CSV spells the same values
    payload = json.loads(json.dumps(STRIP_CONFIG))
    payload["voltage"] = {"values": ["0 V", "0.6 V"]}  # V = 0 gives None cells
    strip = write_config(tmp_path, payload)
    spin = write_config(tmp_path, {"spin": {"beta": {"start": 0.2, "stop": 3.0, "points": 57}}}, "spin.json")
    out = tmp_path / "out"
    for argv, tables in ((["hic", "--config", strip], ["hic"]),
                         (["error-budget", "--config", strip], ["error_budget", "nulling"]),
                         (["spectrum", "--config", spin], ["spectrum"])):
        assert main([*argv, "--out-dir", str(out), "--format", "both"]) == 0
        for name in tables:
            text = (out / f"{name}.json").read_text(encoding="utf-8")
            records = json.loads(text)
            assert text == json.dumps(records, indent=2, sort_keys=True) + "\n"
            header, *rows = read_csv(out / f"{name}.csv")
            spelled = [
                {k: "" if v is None else v if isinstance(v, str) else repr(v) for k, v in rec.items()}
                for rec in records
            ]
            assert [dict(zip(header, row)) for row in rows] == spelled, name
            if name == "error_budget":
                assert any(v is None for rec in records for v in rec.values())


def test_config_grid_and_nulling_axis_are_the_same_floats():
    lo, hi, n = 3e-9, 8e-9, 11
    cfg = load_config(None, [f'spin.beta={{"start": {lo}, "stop": {hi}, "points": {n}}}'])
    ranges = {"a": (lo, hi), "c": (10e-9, 10e-9), "V": (0.0, math.inf)}
    found = find_nulling_parameters(math.inf, ranges, grid_points=n)
    assert found.a.tolist() == cfg.beta_grid
    # with no config the beta grid is the README's {"start": 0.2, "stop": 3.0, "points": 401}
    readme = load_config(None, ['spin.beta={"start": 0.2, "stop": 3.0, "points": 401}'])
    assert load_config(None).beta_grid == readme.beta_grid == DEFAULT_BETA_GRID.tolist()


def test_spectrum_single_point(tmp_path):
    payload = {"spin": {"alpha_a": 0.0, "alpha_b": 0.0, "beta": {"values": [1.5]}, "mu": 0.0}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out), "--format", "csv"]) == 0
    assert len(read_csv(out / "spectrum.csv")) == 1 + 16


def test_anticross_crossing_at_unit_beta(tmp_path):
    payload = {
        "spin": {"alpha_a": 0.0, "alpha_b": 0.0, "beta": {"start": 0.2, "stop": 3.0, "points": 281}, "mu": 0}
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["anticross", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "anticrossings.json").read_text())
    kinds = {r["kind"] for r in report["anticrossings"]}
    assert kinds == {"crossing"}
    step = (3.0 - 0.2) / 280
    assert any(abs(r["beta_star"] - 1.0) <= step for r in report["anticrossings"])


def test_validate_command_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 13
    assert "13/13" in out


def test_validate_exits_1_on_a_failing_criterion(monkeypatch, capsys):
    failing = CriterionResult(cid=7, title="synthetic", passed=False, detail="off by one")
    monkeypatch.setattr(cli, "run_all", lambda: [failing])
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL criterion  7: synthetic -- off by one" in out
    assert "0/1 criteria passed" in out


def test_non_convergence_maps_to_exit_3(tmp_path, monkeypatch):
    from sidonor import cli
    from sidonor.spectrum import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic")

    monkeypatch.setattr(cli, "sweep_spectrum", boom)
    assert main(["spectrum", "--out-dir", str(tmp_path)]) == 3


def run_cli(*argv):
    """(exit code, stderr) of the ``sidonor`` CLI in a fresh interpreter, with default warning filters."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sidonor.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_overflowing_beta_grid_exits_3_with_one_stderr_line(tmp_path):
    # the grid's ascent check must not subtract 1e308 from -1e308
    out = tmp_path / "out"
    code, err = run_cli("spectrum", "--out-dir", str(out), "--set", "spin.beta.values=[-1e308, 1e308]")
    assert code == 3
    assert err.startswith("numerical non-convergence: ") and err.count("\n") == 1
    assert not out.exists()


def test_overflowing_linear_beta_grid_exits_2_with_one_stderr_line(tmp_path):
    # (stop - start) * i overflows at the last point: no numpy warning may reach stderr
    out = tmp_path / "out"
    code, err = run_cli("spectrum", "--out-dir", str(out),
                        "--set", 'spin.beta={"start": -2.9, "stop": 1.7e308, "points": 3}')
    assert code == 2
    assert err.startswith("config error: spin.beta: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["hic", "error-budget", "spectrum", "anticross"])
@pytest.mark.parametrize(
    "override",
    ["material.eps_r=1e-310", "material.eps_r=1.7e308", 'material.a_star="1e-310 nm"'],
    ids=["underflowing-eps_r", "overflowing-eps_r", "underflowing-a_star"],
)
def test_computed_delta_E_that_is_zero_or_infinite_exits_2(tmp_path, command, override):
    # the computed delta_E divides by eps_r a*, and the first-order shift by delta_E
    cfg = write_config(tmp_path, STRIP_CONFIG)
    out = tmp_path / "out"
    code, err = run_main([command, "--config", cfg, "--out-dir", str(out), "--set", override])
    assert code == 2
    assert err.startswith("config error: material: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "utf-16-bom"])
def test_unreadable_config_exits_2_and_writes_nothing(tmp_path, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    code, err = run_main(["hic", "--config", str(path), "--out-dir", str(out)])
    assert code == 2
    assert err.startswith("config error: --config: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["hic", "anticross"])  # through _emit and _out_path
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_out_dir_that_is_a_file_exits_2(tmp_path, command, below):
    (tmp_path / "notadir").write_text("kept\n", encoding="utf-8")
    out = tmp_path / "notadir" / "x" if below else tmp_path / "notadir"
    cfg = write_config(tmp_path, DISC_CONFIG)
    code, err = run_main([command, "--config", cfg, "--out-dir", str(out)])
    assert code == 2
    assert err.startswith("config error: --out-dir: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "notadir"]
    assert (tmp_path / "notadir").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(("command", "blocked"), [
    ("hic", "hic.json"),
    ("error-budget", "nulling.json"),  # the error_budget table comes first
    ("spectrum", "spectrum.json"),
    ("spectrum", "anticrossings.json"),  # written after the spectrum table
    ("anticross", "anticrossings.json"),
])
def test_output_path_that_is_a_directory_exits_2_and_writes_nothing(tmp_path, command, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path, STRIP_CONFIG if command == "error-budget" else DISC_CONFIG)
    code, err = run_main([command, "--config", cfg, "--out-dir", str(out)])
    assert code == 2
    assert err.startswith("config error: --out-dir: ") and err.count("\n") == 1
    assert os.listdir(out) == [blocked] and os.listdir(out / blocked) == []


def test_dz_truncation_is_one_log_line_per_coefficient_mode(tmp_path):
    cfg = write_config(tmp_path, STRIP_CONFIG)
    code, err = run_cli("error-budget", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                        "--set", 'placement.dz="3 nm"')  # above 0.2 c = 2 nm
    assert code == 0
    assert err == "dz exceeds 0.2 c: dropped dz^2 terms are no longer negligible\n" * 2


def test_non_finite_spectrum_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["spectrum", "--format", "csv", "--out-dir", str(out),
            "--set", "spin.beta.values=[1.0,1.7e308]"]
    assert main(argv) == 3
    assert "non-convergence" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_hamiltonian_entry_exits_3_without_warnings(tmp_path, capsys):
    # each term of H is finite, but the alpha and mu terms add up beyond the float range;
    # pytest turns a numpy overflow warning into an error
    out = tmp_path / "out"
    argv = ["anticross", "--out-dir", str(out), "--set", "spin.alpha_a=1.7e308", "--set", "spin.mu=1.7e308"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical non-convergence: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "base, command, override, field",
    [
        (DISC_CONFIG, "anticross", "spin.alpha_a=NaN", "spin.alpha_a"),
        (DISC_CONFIG, "hic", 'gate.a="nan nm"', "gate.a"),
        (DISC_CONFIG, "anticross", "spin.beta.values=[1.0,0.5]", "spin.beta"),
        (DISC_CONFIG, "anticross", "spin.mu=Infinity", "spin.mu"),
        (STRIP_CONFIG, "error-budget", 'gate.kind="disc"', "gate.kind"),
        (STRIP_CONFIG, "error-budget", 'voltage.values=["-0.5 V"]', "voltage"),
        (STRIP_CONFIG, "error-budget", "placement=3", "placement"),
        (STRIP_CONFIG, "error-budget", "error_budget.ranges=3", "error_budget.ranges"),
        (STRIP_CONFIG, "error-budget", 'error_budget.ranges.a=["8 nm","3 nm"]',
         "error_budget.ranges.a"),
        (STRIP_CONFIG, "error-budget", 'error_budget.line_width="-1 kHz"',
         "error_budget.line_width"),
        (DISC_CONFIG, "hic", 'material.Delta_E="0 eV"', "material.Delta_E"),
        (DISC_CONFIG, "hic", 'gate={"kind":"disc","a":"1e308 m","c":"1e308 nm"}', "gate"),
        (STRIP_CONFIG, "error-budget",
         ['gate.a="1e300 m"', 'gate.c="1e300 nm"', 'gate.D="1.7e308 m"'], "gate"),
        (STRIP_CONFIG, "hic", 'voltage.values=["1e300 V"]', "voltage"),
        (DISC_CONFIG, "hic", 'voltage.values=["1e300 V"]', "voltage"),
        (STRIP_CONFIG, "error-budget", 'voltage.values=["1e300 V"]', "voltage"),
        (STRIP_CONFIG, "error-budget", "error_budget.target=-0.01", "error_budget.target"),
        (STRIP_CONFIG, "hic", 'gate={"kind":"strip","a":"1e-170 m","c":"1e-170 m","D":"1e-100 m"}',
         "gate"),
        (STRIP_CONFIG, "error-budget", 'material.a_star="1e-300 m"', "material"),
        (STRIP_CONFIG, "error-budget", 'material.psi0_sq="0 m^-3"', "material.psi0_sq"),
        (STRIP_CONFIG, "error-budget", 'material.psi0_sq="1e-320 m^-3"', "material.psi0_sq"),
        (STRIP_CONFIG, "hic", "foo=1", "foo"),
        (STRIP_CONFIG, "hic", 'material.m_star="2.8e-31 kg"', "material.m_star"),
        (STRIP_CONFIG, "hic", 'gate.radius="5 nm"', "gate.radius"),
        (STRIP_CONFIG, "hic", 'voltage.step="0.1 V"', "voltage.step"),
        (STRIP_CONFIG, "error-budget", 'placement.dy="1 nm"', "placement.dy"),
        (STRIP_CONFIG, "error-budget", "error_budget.tolerance=0.1", "error_budget.tolerance"),
        (STRIP_CONFIG, "error-budget", 'error_budget.ranges.D=["1 nm","2 nm"]',
         "error_budget.ranges.D"),
        (STRIP_CONFIG, "anticross", "spin.alpha_A=0.9", "spin.alpha_A"),
        (STRIP_CONFIG, "anticross", "spin.beta.step=0.1", "spin.beta.step"),
        (DISC_CONFIG, "hic", 'material.delta_E="0 eV"', "material.delta_E"),
        (STRIP_CONFIG, "error-budget", 'placement.dx="1e150 m"', "placement.dx"),  # dx^2 term -inf
        (STRIP_CONFIG, "error-budget", 'placement.dx="1e200 m"', "placement.dx"),  # dx**2 raises
        (STRIP_CONFIG, "error-budget", 'placement.dz="1e302 m"', "placement.dz"),
        (STRIP_CONFIG, "error-budget", 'material.a_star="1e200 m"', "material.a_star"),
        (STRIP_CONFIG, "error-budget", 'material.delta_E="1e-320 J"', "material"),
        # several faults: the first failing row names the field; the 1e-300 V row fails first
        # on dz_for_target, the 0.5 V row on its dx^2 term, and dx**2 raises before any cell
        (README_CONFIG, "error-budget", ['placement.dx="1e150 m"', 'voltage.values=["1e-300 V","0.5 V"]'],
         "voltage"),
        (README_CONFIG, "error-budget", ['placement.dx="1e150 m"', 'voltage.values=["0.5 V","1e-300 V"]'],
         "placement.dx"),
        (README_CONFIG, "error-budget",
         ['placement.dx="1e200 m"', 'placement.dz="1e302 m"', 'voltage.values=["0.5 V"]'], "placement.dx"),
    ],
    ids=["nan-alpha", "nan-gate-length", "descending-beta", "infinite-mu", "disc-error-budget",
         "negative-voltage", "placement-not-object", "ranges-not-object", "inverted-range",
         "negative-line-width", "zero-Delta_E", "overflowing-gate", "overflowing-strip-placement",
         "overflowing-strip-hic-voltage", "overflowing-disc-hic-voltage",
         "overflowing-error-budget-voltage", "negative-target", "underflowing-gate",
         "underflowing-recomputed-coefficients", "zero-psi0_sq", "underflowing-psi0_sq",
         "unknown-top-level-key", "unknown-material.m_star", "unknown-gate-key",
         "unknown-grid-key", "unknown-placement-key", "unknown-error_budget-key",
         "unknown-ranges-key", "unknown-spin-key", "unknown-spin.beta-key", "zero-delta_E",
         "overflowing-dx2-term", "overflowing-dx2", "overflowing-dz-term", "overflowing-a_star",
         "overflowing-recomputed-dx2-term", "tiny-voltage-row-first", "overflowing-dx2-row-first",
         "overflowing-dx-before-dz-term"],
)
def test_non_finite_or_unordered_config_exits_2_and_writes_nothing(
    tmp_path, capsys, base, command, override, field
):
    cfg = write_config(tmp_path, base)
    out = tmp_path / "out"
    overrides = [override] if isinstance(override, str) else override
    argv = [command, "--config", cfg, "--out-dir", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ('material.Delta_E="1e-300 J"', "material"),  # admissible_dV is inf
        ('material.Delta_E="1e300 J"', "material"),  # admissible_dV is negative
        ('material.Delta_E="1e295 J"', "material"),  # recomputed dz_for_target is inf
        ('voltage.values=["1e-300 V","0.5 V"]', "voltage"),  # published dz_for_target is inf
    ],
    ids=["inf-admissible_dV", "negative-admissible_dV", "inf-recomputed-dz", "inf-published-dz"],
)
def test_error_budget_cell_that_is_no_finite_bound_exits_2(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, README_CONFIG)
    out = tmp_path / "out"
    assert main(["error-budget", "--config", cfg, "--out-dir", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


TEXT_CELLS = ("", "published", "recomputed")  # error-budget cells that are no numbers


def test_error_budget_huge_length_range_writes_only_finite_cells(tmp_path, capsys):
    # mesh points whose lengths overflow the strip formulas have no root
    cfg = write_config(tmp_path, STRIP_CONFIG)
    out = tmp_path / "out"
    argv = ["error-budget", "--config", cfg, "--out-dir", str(out),
            "--set", 'error_budget.ranges.a=["1e-300 m","1e300 m"]']
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would reach stderr
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out / "nulling.csv")[1:]
    assert rows and {r[0] for r in rows} == {"1e-300"}
    for name in ("error_budget.csv", "nulling.csv"):
        cells = [x for row in read_csv(out / name)[1:] for x in row if x not in TEXT_CELLS]
        assert all(math.isfinite(float(x)) for x in cells)


def _quantity(typical, unit, signed=False):
    """Quantity strings: mostly a value of typical size, sometimes any exponent from -320 to 308."""
    any_size = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-320, 308))
    text = st.one_of(typical.map(repr), typical.map(repr), any_size)
    if signed:
        text = st.builds("{}{}".format, st.sampled_from(["", "-"]), text)
    return text.map(lambda t: f"{t} {unit}")


NM = st.floats(1.0, 20.0)
ERROR_BUDGET_CONFIGS = st.fixed_dictionaries({  # no ranges: no nulling mesh
    "material": st.fixed_dictionaries({
        "a_star": _quantity(st.floats(1.0, 5.0), "nm"),
        "Delta_E": _quantity(st.floats(0.01, 0.1), "eV"),
        "delta_E": _quantity(st.floats(0.01, 0.05), "eV", signed=True),
    }),
    "gate": st.fixed_dictionaries({
        "kind": st.just("strip"),
        "a": _quantity(NM, "nm"),
        "c": _quantity(NM, "nm"),
        "D": _quantity(st.floats(50.0, 1000.0), "nm"),
    }),
    "voltage": st.fixed_dictionaries({"values": st.lists(
        st.one_of(st.sampled_from(["0 V", "-0.0 V", "1e-300 V"]), _quantity(st.floats(0.0, 2.0), "V")),
        min_size=1, max_size=4,
    )}),
    "placement": st.fixed_dictionaries({
        "dx": _quantity(st.floats(0.0, 5.0), "nm", signed=True),
        "dz": _quantity(st.floats(0.0, 5.0), "nm", signed=True),
    }),
    "error_budget": st.fixed_dictionaries({
        "target": st.one_of(st.floats(1e-4, 1.0), st.builds(lambda m, e: float(f"{m}e{e}"),
                                                               st.integers(1, 9), st.integers(-320, 308))),
        "line_width": _quantity(st.floats(0.0, 100.0), "kHz"),
    }),
})


def run_main(argv):
    """(exit code, stderr) of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100)
@given(payload=ERROR_BUDGET_CONFIGS)
def test_error_budget_table_equals_per_row_oracle(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(pathlib.Path(tmp), payload)
        new, ref = os.path.join(tmp, "new"), os.path.join(tmp, "ref")
        code, err = run_main(["error-budget", "--config", cfg_path, "--out-dir", new])
        try:
            cfg = load_config(cfg_path, [])
        except ConfigError as exc:  # refused before the error budget runs
            assert (code, err) == (2, f"config error: {exc}\n")
            return
        expected = per_row_error_budget(cfg)
        if isinstance(expected, ConfigError):  # the same field, with the same message
            assert (code, err) == (2, f"config error: {expected}\n")
            assert not os.path.exists(new)
            return
        assert (code, err) == (0, "")
        os.mkdir(ref)
        header = ["mode", "V", "dz_term", "dx2_term", "dA_over_A", "dz_for_target", "dz_in_2_3_nm",
                  "admissible_dV", "nulling_V"]
        write_table(os.path.join(ref, "error_budget.csv"), os.path.join(ref, "error_budget.json"),
                    header, expected)
        for name in ("error_budget.csv", "error_budget.json"):
            with open(os.path.join(new, name), "rb") as a, open(os.path.join(ref, name), "rb") as b:
                assert a.read() == b.read(), name


@settings(max_examples=100)
@given(payload=ERROR_BUDGET_CONFIGS)
def test_error_budget_exits_0_with_finite_cells_or_2_with_one_line(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(pathlib.Path(tmp), payload)
        out = os.path.join(tmp, "out")
        code, err = run_main(["error-budget", "--config", cfg_path, "--out-dir", out, "--format", "csv"])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert "Traceback" not in err
            return
        assert err == ""
        cells = [x for row in read_csv(os.path.join(out, "error_budget.csv"))[1:] for x in row
                 if x not in TEXT_CELLS]
        assert cells and all(math.isfinite(float(x)) for x in cells)


# (path, unit) of every config entry the contract property sets; unit None is a plain number
FUZZ_FIELDS = (
    (("material", "a_star"), "nm"), (("material", "eps_r"), None), (("material", "psi0_sq"), "cm^-3"),
    (("material", "Delta_E"), "eV"), (("material", "delta_E"), "eV"),
    (("gate", "a"), "nm"), (("gate", "c"), "nm"), (("gate", "D"), "nm"),
    (("voltage", "start"), "V"), (("voltage", "stop"), "V"),
    (("placement", "dx"), "nm"), (("placement", "dz"), "nm"),
    (("error_budget", "target"), None), (("error_budget", "line_width"), "kHz"),
    (("error_budget", "ranges", "a", 1), "nm"), (("error_budget", "ranges", "c", 0), "nm"),
    (("error_budget", "ranges", "V", 1), "V"),
    (("spin", "alpha_a"), None), (("spin", "alpha_b"), None), (("spin", "mu"), None),
    (("spin", "beta", "start"), None), (("spin", "beta", "stop"), None),
)
EXTREME_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def fuzzed_configs(draw):
    """A README-like config with one to three entries set to an extreme value."""
    payload = copy.deepcopy(README_CONFIG)
    if draw(st.booleans()):
        payload["gate"] = {"kind": "disc", "a": "5 nm", "c": "10 nm"}
    if draw(st.booleans()):  # delta_E computed from eps_r and a_star
        del payload["material"]["delta_E"]
    payload["voltage"]["points"] = 3
    payload["spin"]["beta"]["points"] = draw(st.integers(1, 12))
    payload["error_budget"]["ranges"]["a"] = ["5 nm", "5 nm"]  # a 101-point nulling mesh
    for path, unit in draw(st.lists(st.sampled_from(FUZZ_FIELDS), min_size=1, max_size=3, unique=True)):
        x = draw(EXTREME_NUMBERS)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = x if unit is None else f"{x!r} {unit}"
    return payload


def json_numbers(value):
    """Every number in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in json_numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@settings(max_examples=100)
@given(payload=fuzzed_configs(), command=st.sampled_from(["hic", "error-budget", "spectrum", "anticross"]))
def test_extreme_configs_exit_0_with_finite_outputs_or_2_or_3(payload, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(pathlib.Path(tmp), payload)
        out = pathlib.Path(tmp, "out")
        code, err = run_main([command, "--config", cfg_path, "--out-dir", str(out), "--format", "json"])
        assert code in (0, 2, 3)
        if code:
            assert err.splitlines()[-1].startswith(("config error: ", "numerical non-convergence: "))
            return
        files = sorted(out.iterdir())
        assert files
        for path in files:
            numbers = json_numbers(json.loads(path.read_text(encoding="utf-8")))
            assert all(math.isfinite(x) for x in numbers), path.name


@pytest.mark.parametrize("values", [
    [0.5, 0.5000000000000011, 2.0],  # a base step of 10 ulps next to one of 1.5
    [0.2, 1.0, 1.0000000001],
    [1e-320, 2e-320, 1.0],  # subnormal base points
], ids=["ulp-step", "tiny-step", "subnormal"])
def test_refined_export_of_a_grid_with_a_close_pair_stays_in_the_grid(tmp_path, values):
    out = tmp_path / "out"
    code, err = run_main(["spectrum", "--out-dir", str(out), "--set", f"spin.beta.values={json.dumps(values)}"])
    assert (code, err) == (0, "")
    rows = read_csv(out / "spectrum.csv")[1:]
    assert len(rows) == 16 * len(values)
    assert all(math.isfinite(float(x)) for row in rows for x in row)
    assert [float(row[0]) for row in rows] == np.repeat(values, 16).tolist()
    for name in ("spectrum.json", "anticrossings.json"):
        assert all(math.isfinite(x) for x in json_numbers(json.loads((out / name).read_text(encoding="utf-8"))))


def test_parsers_reject_non_finite_numbers():
    for value in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ConfigError, match="spin.alpha_a"):
            parse_number(value, "spin.alpha_a")
    for value in ("nan nm", "inf nm", "-inf nm", "1e999 nm", "1e308 cm^-3"):
        kind = "density" if value.endswith("cm^-3") else "length"
        with pytest.raises(ConfigError, match="gate.a"):
            parse_quantity(value, kind, "gate.a")

