"""The example scripts print the tables pinned in tests/data."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv", [
    ("fulmar_constant_conditions", ()),
    ("fulmar_entry_year", ([],)),
])
def test_printed_table_is_pinned(capsys, name, argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(*argv)
    assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text()
