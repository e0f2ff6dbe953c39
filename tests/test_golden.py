"""The CLI's outputs on a fixed case set equal the committed references in tests/golden/."""

import pytest
from golden import CASES, differences, load_reference, run_case


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_equal_the_golden_reference(case, tmp_path):
    assert differences(run_case(case, tmp_path), load_reference(case)) == []
