"""The README's library example runs as written and gives the result it states,
and every ``sidonor`` name it cites exists."""

import pathlib
import pkgutil
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_finds_the_stated_transfers():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # "-> the (15 -> 12) and (13 -> 10) exchanges near beta = 1"
    reports = namespace["reports"]
    assert sorted(r.pair for r in reports) == [(13, 10), (15, 12)]
    assert all(0.8 < r.beta_star < 1.2 for r in reports)
    assert len(namespace["table"]) > 0


def test_every_sidonor_name_the_readme_cites_resolves():
    # `sidonor.spectrum`, `sidonor.BLOCKS[track.block]`, ...: the dotted name up to
    # the first character that is not part of one; a placeholder is spelled `<name>`
    names = re.findall(r"`(sidonor(?:\.\w+)+)", README.read_text(encoding="utf-8"))
    assert names
    for name in names:
        pkgutil.resolve_name(name)  # imports a module, or raises AttributeError
