import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def module_map_rows():
    """(module, names) for each row of README's "Module map" table."""
    section = README.read_text().split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = re.match(r"\|\s*`(roughpath(?:\.\w+)*)`\s*\|(.*)\|\s*$", line)
        if match:
            names = re.findall(r"`([A-Za-z_]\w*)`", match.group(2))
            rows.append((match.group(1), names))
    return rows


ROWS = module_map_rows()


def test_module_map_lists_every_module():
    # guards the parser: a table it cannot read would pass the check below
    assert len(ROWS) >= 9


@pytest.mark.parametrize("module, names", ROWS, ids=[module for module, _ in ROWS])
def test_module_map_names_exist(module, names):
    mod = importlib.import_module(module)
    assert [n for n in names if not hasattr(mod, n)] == []
