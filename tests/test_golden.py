"""The CLI's outputs on a fixed case set equal the committed references in tests/golden/."""

import pytest
from golden import CASES, ROOT, compare, differences, load_reference, run_case

import sidonor.spectrum

SPIN_CASES = [case for case, (args, _, _) in CASES.items() if args[0] in ("spectrum", "anticross")]


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_equal_the_golden_reference(case, tmp_path):
    assert differences(run_case(case, tmp_path), load_reference(case)) == []


@pytest.mark.parametrize("case", SPIN_CASES)
def test_outputs_do_not_depend_on_eigenvector_signs(case, tmp_path, monkeypatch):
    """An eigenvector's sign is arbitrary: negating every odd column changes no output."""
    solve = sidonor.spectrum.eigensolve_block
    (tmp_path / "as-solved").mkdir()
    want = run_case(case, tmp_path / "as-solved")

    def negate_odd_columns(h):
        w, v = solve(h)
        v = v.copy()
        v[..., 1::2] *= -1.0
        return w, v

    monkeypatch.setattr(sidonor.spectrum, "eigensolve_block", negate_odd_columns)
    (tmp_path / "negated").mkdir()
    assert run_case(case, tmp_path / "negated") == want


def test_compare_finds_no_byte_difference_between_src_and_itself():
    assert compare(ROOT / "src", ["anticross"]) == []
